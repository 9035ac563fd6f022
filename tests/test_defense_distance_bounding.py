"""Tests for the distance-bounding verifier."""

import pytest

from repro.defense.distance_bounding import (
    SPEED_OF_LIGHT_MPS,
    DistanceBoundingConfig,
    DistanceBoundingVerifier,
)
from repro.defense.verifier import LocationClaim, VerificationOutcome
from repro.errors import DefenseError
from repro.geo.coordinates import GeoPoint
from repro.geo.distance import destination_point, haversine_m

VENUE = GeoPoint(37.8080, -122.4177)
ATTACKER = GeoPoint(35.0844, -106.6504)


def claim(physical):
    return LocationClaim(
        user_id=1,
        venue_id=1,
        venue_location=VENUE,
        claimed_location=VENUE,
        physical_location=physical,
    )


class TestProtocolPhysics:
    def test_bound_never_below_true_distance(self):
        verifier = DistanceBoundingVerifier(seed=3)
        for meters in (0.0, 50.0, 500.0, 5_000.0, 1_000_000.0):
            device = destination_point(VENUE, 45.0, meters)
            bound = verifier.bound_distance_m(VENUE, device)
            true = haversine_m(VENUE, device)
            assert bound >= true - 1.0  # numeric slack only

    def test_bound_tight_for_nearby_device(self):
        verifier = DistanceBoundingVerifier(seed=3)
        device = destination_point(VENUE, 45.0, 20.0)
        bound = verifier.bound_distance_m(VENUE, device)
        # Jitter inflation stays well under the acceptance radius.
        assert bound < 200.0

    def test_rtt_includes_flight_time(self):
        verifier = DistanceBoundingVerifier(seed=3)
        device = destination_point(VENUE, 0.0, 300_000.0)  # 300 km
        rtt = verifier.measure_rtt_s(VENUE, device)
        assert rtt >= 2.0 * 300_000.0 / SPEED_OF_LIGHT_MPS


class TestVerification:
    def test_attacker_cannot_beat_light(self):
        verifier = DistanceBoundingVerifier(seed=1)
        result = verifier.verify(claim(ATTACKER))
        assert result.outcome is VerificationOutcome.REJECT
        assert result.estimated_distance_m > 1_000_000

    def test_honest_device_accepted(self):
        verifier = DistanceBoundingVerifier(seed=1)
        device = destination_point(VENUE, 120.0, 30.0)
        result = verifier.verify(claim(device))
        assert result.outcome is VerificationOutcome.ACCEPT

    def test_borderline_respects_configured_limit(self):
        config = DistanceBoundingConfig(max_distance_m=1_000.0)
        verifier = DistanceBoundingVerifier(config, seed=1)
        inside = destination_point(VENUE, 0.0, 500.0)
        outside = destination_point(VENUE, 0.0, 5_000.0)
        assert verifier.verify(claim(inside)).accepted
        assert verifier.verify(claim(outside)).rejected

    def test_zero_rounds_rejected(self):
        with pytest.raises(DefenseError):
            DistanceBoundingVerifier(DistanceBoundingConfig(rounds=0))

    def test_more_rounds_tighter_bound(self):
        device = destination_point(VENUE, 0.0, 10.0)
        few = DistanceBoundingVerifier(
            DistanceBoundingConfig(rounds=1), seed=7
        )
        many = DistanceBoundingVerifier(
            DistanceBoundingConfig(rounds=64), seed=7
        )
        few_bounds = [few.bound_distance_m(VENUE, device) for _ in range(30)]
        many_bounds = [many.bound_distance_m(VENUE, device) for _ in range(30)]
        assert sum(many_bounds) / 30 < sum(few_bounds) / 30


def per_round_bound_m(verifier, verifier_at, device_at):
    """The protocol as first written: one full RTT measurement per round."""
    best_rtt = min(
        verifier.measure_rtt_s(verifier_at, device_at)
        for _ in range(verifier.config.rounds)
    )
    corrected = max(0.0, best_rtt - verifier.config.processing_min_s)
    return corrected * SPEED_OF_LIGHT_MPS / 2.0


class TestOneDistancePerClaim:
    """Measuring the distance once per claim changes no bit of the bound."""

    @pytest.mark.parametrize("rounds", [1, 2, 16, 64])
    def test_bound_and_rng_state_match_the_per_round_loop(self, rounds):
        config = DistanceBoundingConfig(rounds=rounds)
        fast = DistanceBoundingVerifier(config, seed=11)
        reference = DistanceBoundingVerifier(config, seed=11)
        for index, meters in enumerate(
            (0.0, 3.0, 80.0, 249.0, 251.0, 4_000.0, 1_200_000.0)
        ):
            device = destination_point(VENUE, 37.0 * index, meters)
            assert fast.bound_distance_m(VENUE, device) == per_round_bound_m(
                reference, VENUE, device
            )
            assert fast._rng.getstate() == reference._rng.getstate()

    def test_verdicts_match_the_per_round_loop(self):
        fast = DistanceBoundingVerifier(seed=5)
        reference = DistanceBoundingVerifier(seed=5)
        for index in range(50):
            device = destination_point(VENUE, 7.0 * index, 10.0 * index**2)
            result = fast.verify(claim(device))
            bound = per_round_bound_m(reference, VENUE, device)
            assert result.estimated_distance_m == bound
            assert result.accepted == (bound <= fast.config.max_distance_m)
        assert fast._rng.getstate() == reference._rng.getstate()
