"""Distance bounding (§5.1): the most accurate — and most expensive — defense.

A verifier deployed at the venue runs timed challenge-response rounds with
the device.  Radio propagates at the speed of light, so the round-trip time
upper-bounds the device's distance; no amount of GPS spoofing changes
physics.  The thesis's comparison: "provides the most accurate location
data, and it can be used anywhere, but it is difficult to implement and has
the highest cost" (a verifier must be installed per venue).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.defense.verifier import (
    LocationClaim,
    VerificationOutcome,
    VerificationResult,
)
from repro.errors import DefenseError
from repro.geo.coordinates import GeoPoint
from repro.geo.distance import haversine_m

#: Speed of light in m/s — the physical constant the protocol leans on.
SPEED_OF_LIGHT_MPS = 299_792_458.0


@dataclass
class DistanceBoundingConfig:
    """Protocol parameters."""

    #: Accept claims bounded within this distance of the venue.
    max_distance_m: float = 250.0
    #: Challenge-response rounds; the minimum RTT over all rounds is used
    #: (processing jitter only ever inflates RTT, so min is the tightest
    #: honest bound).
    rounds: int = 16
    #: Device processing delay floor/ceiling per round, seconds.  At the
    #: speed of light 1 us of unaccounted jitter inflates the bound by
    #: 150 m, so real protocols demand tight response clocks; these values
    #: keep typical inflation well under ``max_distance_m``.
    processing_min_s: float = 1e-6
    processing_max_s: float = 3e-6


class DistanceBoundingVerifier:
    """A venue-side verifier running the timed protocol."""

    name = "distance-bounding"

    def __init__(
        self,
        config: Optional[DistanceBoundingConfig] = None,
        seed: int = 0,
    ) -> None:
        self.config = config or DistanceBoundingConfig()
        if self.config.rounds < 1:
            raise DefenseError("need at least one protocol round")
        self._rng = random.Random(seed)

    def measure_rtt_s(self, verifier_at: GeoPoint, device_at: GeoPoint) -> float:
        """One round's round-trip time: flight both ways plus processing."""
        distance = haversine_m(verifier_at, device_at)
        flight = 2.0 * distance / SPEED_OF_LIGHT_MPS
        processing = self._rng.uniform(
            self.config.processing_min_s, self.config.processing_max_s
        )
        return flight + processing

    def bound_distance_m(
        self, verifier_at: GeoPoint, device_at: GeoPoint
    ) -> float:
        """The distance upper bound after all rounds.

        Subtracts only the *guaranteed* processing floor, so the bound is
        conservative (never below the true distance).  The flight time is
        the same every round, so it is computed once; the rounds draw
        processing delays exactly as :meth:`measure_rtt_s` does.
        """
        flight = 2.0 * haversine_m(verifier_at, device_at) / SPEED_OF_LIGHT_MPS
        uniform = self._rng.uniform
        low, high = self.config.processing_min_s, self.config.processing_max_s
        best_rtt = min(
            flight + uniform(low, high) for _ in range(self.config.rounds)
        )
        corrected = max(0.0, best_rtt - self.config.processing_min_s)
        return corrected * SPEED_OF_LIGHT_MPS / 2.0

    def verify(self, claim: LocationClaim) -> VerificationResult:
        """Run the protocol between the venue and the physical device."""
        bound = self.bound_distance_m(
            claim.venue_location, claim.physical_location
        )
        if bound <= self.config.max_distance_m:
            return VerificationResult(
                outcome=VerificationOutcome.ACCEPT,
                estimated_distance_m=bound,
                detail=f"bounded within {bound:.0f} m",
            )
        return VerificationResult(
            outcome=VerificationOutcome.REJECT,
            estimated_distance_m=bound,
            detail=(
                f"device provably >= {bound:.0f} m away "
                f"(limit {self.config.max_distance_m:.0f} m)"
            ),
        )
