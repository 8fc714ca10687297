"""Cloud accounts and the placement-score query quota.

The paper's central collection obstacle (Section 3.1): one account may issue
at most ~50 *unique* placement-score queries per rolling 24 hours, where
uniqueness is the combination of instance types, regions and target
capacity; repeating an already-issued query is free.  SpotLake needs ~2,226
unique queries per round after bin-packing, so it must spread them over a
pool of accounts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple

from .errors import CredentialExpiredError, QuotaExceededError

#: Empirical unique-query allowance per account per rolling 24 hours.
DEFAULT_QUERY_QUOTA = 50

#: Rolling window length for the quota, seconds.
QUOTA_WINDOW_SECONDS = 24 * 3600.0

#: A hashable unique-query fingerprint:
#: (types, regions, target capacity, single-AZ flag).
QueryKey = Tuple[FrozenSet[str], FrozenSet[str], int, bool]


def make_query_key(instance_types, regions, target_capacity: int,
                   single_availability_zone: bool) -> QueryKey:
    """Canonical uniqueness key of a placement-score query."""
    return (frozenset(instance_types), frozenset(regions),
            int(target_capacity), bool(single_availability_zone))


@dataclass
class Account:
    """One cloud account with its own rolling unique-query budget."""

    name: str
    quota: int = DEFAULT_QUERY_QUOTA
    #: first-seen timestamp per unique query currently inside the window.
    #: Insertion order equals charge-time order (the simulation clock is
    #: forward-only and repeats keep their original stamp), so expiry only
    #: ever pops from the front -- see :meth:`_expire`.
    _seen: Dict[QueryKey, float] = field(default_factory=dict, repr=False)
    #: security-token validity; flipped by injected credential faults
    _credentials_expired: bool = field(default=False, repr=False)

    @property
    def credentials_valid(self) -> bool:
        return not self._credentials_expired

    def expire_credentials(self) -> None:
        """Invalidate the security token (fault injection entry point)."""
        self._credentials_expired = True

    def refresh_credentials(self) -> None:
        """Re-authenticate; quota state is untouched (it is per account,
        not per token)."""
        self._credentials_expired = False

    def check_credentials(self) -> None:
        """Raise if the token is expired; every API call goes through this."""
        if self._credentials_expired:
            raise CredentialExpiredError(
                f"account {self.name!r}: security token expired; refresh "
                f"credentials before retrying")

    def _expire(self, now: float) -> None:
        """Drop charges that left the rolling window.

        ``_seen`` is charge-ordered (timestamps non-decreasing), so stale
        entries form a prefix: pop from the front and stop at the first
        in-window stamp.  Amortized O(1) per call instead of a full scan --
        ``acquire`` probes every account on a pool miss, which made the
        full scan the collection round's second-hottest path.
        """
        cutoff = now - QUOTA_WINDOW_SECONDS
        seen = self._seen
        while seen:
            key = next(iter(seen))
            if seen[key] > cutoff:
                break
            del seen[key]

    def unique_queries_used(self, now: float) -> int:
        """Unique queries charged inside the current rolling window."""
        self._expire(now)
        return len(self._seen)

    def remaining(self, now: float) -> int:
        """Unique queries still available inside the rolling window."""
        return self.quota - self.unique_queries_used(now)

    def would_charge(self, key: QueryKey, now: float) -> bool:
        """True if issuing ``key`` now would consume quota (i.e. is new)."""
        self._expire(now)
        return key not in self._seen

    def charge(self, key: QueryKey, now: float) -> None:
        """Record a query, raising if a *new* query exceeds the quota."""
        self._expire(now)
        if key in self._seen:
            return  # repeats are free
        if len(self._seen) >= self.quota:
            raise QuotaExceededError(
                f"account {self.name!r} exhausted its {self.quota} unique "
                f"placement-score queries for the rolling 24h window")
        self._seen[key] = now


class AccountPool:
    """A rotating pool of accounts used by SpotLake's SPS collector.

    ``acquire(key, now)`` returns an account that can issue the query,
    preferring one that has already been charged for it (repeat == free),
    else the account with the most remaining quota.
    """

    def __init__(self, size: int, quota: int = DEFAULT_QUERY_QUOTA,
                 name_prefix: str = "spotlake"):
        if size < 1:
            raise ValueError("an account pool needs at least one account")
        self.accounts: List[Account] = [
            Account(f"{name_prefix}-{i:03d}", quota) for i in range(size)]
        #: hint index: the account last picked for each key.  A key is only
        #: ever *charged* to one account while it sits inside the window
        #: (the linear scan below returns the holder before anyone else can
        #: be charged), so a validated hint is exact; a stale hint (charge
        #: never happened, or the window rolled) falls back to the scan.
        self._charged: Dict[QueryKey, Account] = {}
        # acquisition runs on the collector's single control thread; the
        # lock makes that invariant explicit rather than incidental
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.accounts)

    def acquire(self, key: QueryKey, now: float) -> Account:
        """Pick an account able to issue ``key`` at ``now``."""
        with self._lock:
            hinted = self._charged.get(key)
            if hinted is not None and not hinted.would_charge(key, now):
                return hinted
            for account in self.accounts:
                if not account.would_charge(key, now):
                    self._charged[key] = account
                    return account
            best = max(self.accounts, key=lambda a: a.remaining(now))
            if best.remaining(now) <= 0:
                raise QuotaExceededError(
                    "every account in the pool exhausted its unique-query "
                    "quota")
            self._charged[key] = best
            return best

    def total_remaining(self, now: float) -> int:
        """Unique-query headroom across the whole pool."""
        return sum(a.remaining(now) for a in self.accounts)

    @staticmethod
    def size_for(unique_queries: int, quota: int = DEFAULT_QUERY_QUOTA) -> int:
        """Accounts needed to issue ``unique_queries`` within one window."""
        return -(-unique_queries // quota)  # ceil division
