"""The simulated LBSN service: the substrate under attack.

``LbsnService`` is the server; ``LbsnWebServer`` its public website (the
crawler's target); ``LbsnApiServer`` its developer API (spoofing channel 3);
``CheaterCode`` the anti-cheating rule set the attack must evade.
"""

from repro.lbsn.api import LbsnApiServer, TokenRegistry, parse_kv
from repro.lbsn.cheater_code import (
    RULE_FREQUENT,
    RULE_RAPID_FIRE,
    RULE_SUPERHUMAN,
    CheaterCode,
    CheaterCodeConfig,
    RuleAction,
    RuleVerdict,
)
from repro.lbsn.mayorship import (
    MAYORSHIP_WINDOW_DAYS,
    MayorDecision,
    checkin_days_by_user,
    decide_mayor,
)
from repro.lbsn.models import (
    CheckIn,
    CheckInResult,
    CheckInStatus,
    Special,
    User,
    Venue,
    VenueCategory,
)
from repro.lbsn.rewards import (
    BadgeDefinition,
    BadgeEngine,
    PointsPolicy,
    default_badges,
)
from repro.lbsn.service import (
    RULE_GPS_VERIFICATION,
    LbsnService,
    ServiceConfig,
    ServiceCounters,
)
from repro.lbsn.specials import (
    mayor_only_fraction,
    no_mayorship_specials,
    special_unlocked_by,
    undefended_special_venues,
    venues_with_specials,
)
from repro.lbsn.store import DataStore
from repro.lbsn.webserver import LbsnWebServer

__all__ = [
    "LbsnApiServer",
    "TokenRegistry",
    "parse_kv",
    "RULE_FREQUENT",
    "RULE_RAPID_FIRE",
    "RULE_SUPERHUMAN",
    "CheaterCode",
    "CheaterCodeConfig",
    "RuleAction",
    "RuleVerdict",
    "MAYORSHIP_WINDOW_DAYS",
    "MayorDecision",
    "checkin_days_by_user",
    "decide_mayor",
    "CheckIn",
    "CheckInResult",
    "CheckInStatus",
    "Special",
    "User",
    "Venue",
    "VenueCategory",
    "BadgeDefinition",
    "BadgeEngine",
    "PointsPolicy",
    "default_badges",
    "RULE_GPS_VERIFICATION",
    "LbsnService",
    "ServiceConfig",
    "ServiceCounters",
    "mayor_only_fraction",
    "no_mayorship_specials",
    "special_unlocked_by",
    "undefended_special_venues",
    "venues_with_specials",
    "DataStore",
    "LbsnWebServer",
]

from repro.lbsn.items import (
    Item,
    ItemEvent,
    ItemRarity,
    ItemSystem,
    farm_items,
)

__all__ += [
    "Item",
    "ItemEvent",
    "ItemRarity",
    "ItemSystem",
    "farm_items",
]
