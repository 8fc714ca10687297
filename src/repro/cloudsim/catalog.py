"""Instance-type / region / availability-zone catalog for the simulated cloud.

The paper's collection window covers "about 547 instance types, 17 regions,
and 63 availability zones" on AWS.  This module reconstructs a catalog of the
same shape: the real 2022-era instance families with realistic size ranges,
17 regions whose availability-zone counts sum to 63, and a deterministic
offering matrix (which types exist in which regions, and in how many zones of
each region).

Everything here is deterministic given the catalog ``seed``; no global state.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, Sequence, Tuple

from .._util import stable_range, stable_uniform
from .errors import UnknownInstanceTypeError, UnknownRegionError

# ---------------------------------------------------------------------------
# Instance families
# ---------------------------------------------------------------------------

#: Instance categories used throughout the paper's figures (vertical axis of
#: Figures 3/4/7 groups classes in this order).
CATEGORIES = (
    "general",
    "compute",
    "memory",
    "accelerated",
    "storage",
)

#: Ordered size ladder.  ``rank`` is the index in this tuple and drives the
#: size-related availability penalty (Figure 5: larger sizes score lower).
SIZE_LADDER = (
    "nano",
    "micro",
    "small",
    "medium",
    "large",
    "xlarge",
    "2xlarge",
    "3xlarge",
    "4xlarge",
    "6xlarge",
    "8xlarge",
    "9xlarge",
    "10xlarge",
    "12xlarge",
    "16xlarge",
    "18xlarge",
    "24xlarge",
    "32xlarge",
    "48xlarge",
    "metal",
)

_SIZE_RANK = {name: rank for rank, name in enumerate(SIZE_LADDER)}

#: Approximate vCPU count per size (metal resolved per family to its largest
#: virtualized size).
_SIZE_VCPUS = {
    "nano": 2,
    "micro": 2,
    "small": 2,
    "medium": 2,
    "large": 2,
    "xlarge": 4,
    "2xlarge": 8,
    "3xlarge": 12,
    "4xlarge": 16,
    "6xlarge": 24,
    "8xlarge": 32,
    "9xlarge": 36,
    "10xlarge": 40,
    "12xlarge": 48,
    "16xlarge": 64,
    "18xlarge": 72,
    "24xlarge": 96,
    "32xlarge": 128,
    "48xlarge": 192,
}

#: GiB of memory per vCPU for each category.
_MEM_PER_VCPU = {
    "general": 4.0,
    "compute": 2.0,
    "memory": 8.0,
    "accelerated": 8.0,
    "storage": 7.6,
}

#: On-demand $/hour per vCPU for each category (order-of-magnitude realistic).
_USD_PER_VCPU = {
    "general": 0.048,
    "compute": 0.0425,
    "memory": 0.063,
    "accelerated": 0.156,
    "storage": 0.078,
}


@dataclass(frozen=True)
class InstanceFamily:
    """A hardware generation sharing a class letter and category.

    ``class_letter`` is the paper's instance *class* (T, M, A, C, R, X, Z, P,
    G, DL, Inf, F, VT, Trn, I, D, H, ...); several families map to one class,
    e.g. ``m5`` and ``m6i`` are both class ``M``.
    """

    name: str
    class_letter: str
    category: str
    sizes: Tuple[str, ...]
    accelerator: str | None = None
    accelerator_premium: float = 0.0

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        for size in self.sizes:
            if size not in _SIZE_RANK:
                raise ValueError(f"unknown size {size!r} in family {self.name}")


@dataclass(frozen=True)
class InstanceType:
    """One orderable instance type, e.g. ``p3.2xlarge``."""

    family: InstanceFamily
    size: str

    @property
    def name(self) -> str:
        return f"{self.family.name}.{self.size}"

    @property
    def class_letter(self) -> str:
        return self.family.class_letter

    @property
    def category(self) -> str:
        return self.family.category

    @property
    def size_rank(self) -> int:
        """Index on the global size ladder (used by availability models)."""
        return _SIZE_RANK[self.size]

    @property
    def vcpus(self) -> int:
        if self.size == "metal":
            virtual = [s for s in self.family.sizes if s != "metal"]
            largest = max(virtual, key=lambda s: _SIZE_VCPUS[s]) if virtual else "16xlarge"
            return _SIZE_VCPUS[largest]
        return _SIZE_VCPUS[self.size]

    @property
    def memory_gib(self) -> float:
        return self.vcpus * _MEM_PER_VCPU[self.category]

    @property
    def on_demand_price(self) -> float:
        """Baseline on-demand $/hour used by the pricing engine."""
        base = self.vcpus * _USD_PER_VCPU[self.category]
        return round(base * (1.0 + self.family.accelerator_premium), 4)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Region:
    """A geographic region with a fixed set of availability zones."""

    code: str
    continent: str
    az_count: int

    @property
    def zones(self) -> Tuple[str, ...]:
        return tuple(f"{self.code}{chr(ord('a') + i)}" for i in range(self.az_count))


def _sizes(*names: str) -> Tuple[str, ...]:
    return tuple(names)


_STD = _sizes("large", "xlarge", "2xlarge", "4xlarge", "8xlarge", "12xlarge", "16xlarge", "24xlarge")
_BURST = _sizes("nano", "micro", "small", "medium", "large", "xlarge", "2xlarge")
_GRAV = _sizes("medium", "large", "xlarge", "2xlarge", "4xlarge", "8xlarge", "12xlarge", "16xlarge")


def default_families() -> List[InstanceFamily]:
    """The 2022-era AWS family lineup (about 547 types once expanded)."""
    fam: List[InstanceFamily] = []

    def add(name, letter, cat, sizes, accel=None, premium=0.0):
        fam.append(InstanceFamily(name, letter, cat, sizes, accel, premium))

    # ---- general purpose (T, M, A) ----
    for t in ("t2", "t3", "t3a", "t4g"):
        add(t, "T", "general", _BURST)
    add("a1", "A", "general", _sizes("medium", "large", "xlarge", "2xlarge", "4xlarge", "metal"))
    add("m4", "M", "general", _sizes("large", "xlarge", "2xlarge", "4xlarge", "10xlarge", "16xlarge"))
    add("m5", "M", "general", _STD + ("metal",))
    add("m5a", "M", "general", _STD)
    add("m5d", "M", "general", _STD + ("metal",))
    add("m5n", "M", "general", _STD + ("metal",))
    add("m5dn", "M", "general", _STD + ("metal",))
    add("m5zn", "M", "general", _sizes("large", "xlarge", "2xlarge", "3xlarge", "6xlarge", "12xlarge", "metal"))
    add("m6a", "M", "general", _STD + ("32xlarge", "48xlarge"))
    add("m6g", "M", "general", _GRAV + ("metal",))
    add("m6gd", "M", "general", _GRAV + ("metal",))
    add("m6i", "M", "general", _STD + ("32xlarge", "metal"))
    add("m6id", "M", "general", _STD + ("32xlarge", "metal"))

    # ---- compute optimized (C) ----
    add("c4", "C", "compute", _sizes("large", "xlarge", "2xlarge", "4xlarge", "8xlarge"))
    c5_sizes = _sizes("large", "xlarge", "2xlarge", "4xlarge", "9xlarge", "12xlarge", "18xlarge", "24xlarge")
    add("c5", "C", "compute", c5_sizes + ("metal",))
    add("c5a", "C", "compute", c5_sizes)
    add("c5ad", "C", "compute", c5_sizes)
    add("c5d", "C", "compute", c5_sizes + ("metal",))
    add("c5n", "C", "compute", _sizes("large", "xlarge", "2xlarge", "4xlarge", "9xlarge", "18xlarge", "metal"))
    add("c6a", "C", "compute", _STD + ("32xlarge", "48xlarge"))
    add("c6g", "C", "compute", _GRAV + ("metal",))
    add("c6gd", "C", "compute", _GRAV + ("metal",))
    add("c6gn", "C", "compute", _GRAV)
    add("c6i", "C", "compute", _STD + ("32xlarge", "metal"))
    add("c6id", "C", "compute", _STD + ("32xlarge", "metal"))
    add("c7g", "C", "compute", _GRAV)

    # ---- memory optimized (R, X, Z) ----
    add("r4", "R", "memory", _sizes("large", "xlarge", "2xlarge", "4xlarge", "8xlarge", "16xlarge"))
    add("r5", "R", "memory", _STD + ("metal",))
    add("r5a", "R", "memory", _STD)
    add("r5ad", "R", "memory", _STD)
    add("r5b", "R", "memory", _STD + ("metal",))
    add("r5d", "R", "memory", _STD + ("metal",))
    add("r5dn", "R", "memory", _STD + ("metal",))
    add("r5n", "R", "memory", _STD + ("metal",))
    add("r6a", "R", "memory", _STD + ("32xlarge", "48xlarge"))
    add("r6g", "R", "memory", _GRAV + ("metal",))
    add("r6gd", "R", "memory", _GRAV + ("metal",))
    add("r6i", "R", "memory", _STD + ("32xlarge", "metal"))
    add("r6id", "R", "memory", _STD + ("32xlarge", "metal"))
    add("x1", "X", "memory", _sizes("16xlarge", "32xlarge"))
    add("x1e", "X", "memory", _sizes("xlarge", "2xlarge", "4xlarge", "8xlarge", "16xlarge", "32xlarge"))
    add("x2gd", "X", "memory", _GRAV + ("metal",))
    add("x2idn", "X", "memory", _sizes("16xlarge", "24xlarge", "32xlarge", "metal"))
    add("x2iedn", "X", "memory", _sizes("xlarge", "2xlarge", "4xlarge", "8xlarge", "16xlarge", "24xlarge", "32xlarge", "metal"))
    add("x2iezn", "X", "memory", _sizes("2xlarge", "4xlarge", "6xlarge", "8xlarge", "12xlarge", "metal"))
    add("z1d", "Z", "memory", _sizes("large", "xlarge", "2xlarge", "3xlarge", "6xlarge", "12xlarge", "metal"))

    # ---- accelerated computing (P, G, DL, Inf, F, VT, Trn) ----
    add("p2", "P", "accelerated", _sizes("xlarge", "8xlarge", "16xlarge"), "nvidia-k80", 3.2)
    add("p3", "P", "accelerated", _sizes("2xlarge", "8xlarge", "16xlarge"), "nvidia-v100", 4.5)
    add("p3dn", "P", "accelerated", _sizes("24xlarge",), "nvidia-v100", 4.8)
    add("p4d", "P", "accelerated", _sizes("24xlarge",), "nvidia-a100", 5.6)
    add("p4de", "P", "accelerated", _sizes("24xlarge",), "nvidia-a100-80g", 6.4)
    add("g3", "G", "accelerated", _sizes("4xlarge", "8xlarge", "16xlarge"), "nvidia-m60", 1.4)
    add("g3s", "G", "accelerated", _sizes("xlarge",), "nvidia-m60", 1.4)
    add("g4dn", "G", "accelerated", _sizes("xlarge", "2xlarge", "4xlarge", "8xlarge", "12xlarge", "16xlarge", "metal"), "nvidia-t4", 1.7)
    add("g4ad", "G", "accelerated", _sizes("xlarge", "2xlarge", "4xlarge", "8xlarge", "16xlarge"), "amd-v520", 1.3)
    add("g5", "G", "accelerated", _sizes("xlarge", "2xlarge", "4xlarge", "8xlarge", "12xlarge", "16xlarge", "24xlarge", "48xlarge"), "nvidia-a10g", 1.9)
    add("g5g", "G", "accelerated", _sizes("xlarge", "2xlarge", "4xlarge", "8xlarge", "16xlarge", "metal"), "nvidia-t4g", 1.5)
    add("dl1", "DL", "accelerated", _sizes("24xlarge",), "habana-gaudi", 2.4)
    add("trn1", "Trn", "accelerated", _sizes("2xlarge", "32xlarge"), "aws-trainium", 2.2)
    add("inf1", "Inf", "accelerated", _sizes("xlarge", "2xlarge", "6xlarge", "24xlarge"), "aws-inferentia", 0.9)
    add("f1", "F", "accelerated", _sizes("2xlarge", "4xlarge", "16xlarge"), "xilinx-vu9p", 2.6)
    add("vt1", "VT", "accelerated", _sizes("3xlarge", "6xlarge", "24xlarge"), "xilinx-u30", 1.1)

    # ---- previous-generation families still listed in 2022 ----
    add("t1", "T", "general", _sizes("micro",))
    add("m2", "M", "general", _sizes("xlarge", "2xlarge", "4xlarge"))
    add("m3", "M", "general", _sizes("medium", "large", "xlarge", "2xlarge"))
    add("m5ad", "M", "general", _STD)
    add("c1", "C", "compute", _sizes("medium", "xlarge"))
    add("c3", "C", "compute", _sizes("large", "xlarge", "2xlarge", "4xlarge", "8xlarge"))
    add("cc2", "C", "compute", _sizes("8xlarge",))
    add("r3", "R", "memory", _sizes("large", "xlarge", "2xlarge", "4xlarge", "8xlarge"))
    add("g2", "G", "accelerated", _sizes("2xlarge", "8xlarge"), "nvidia-k520", 1.1)

    # ---- storage optimized (I, D, H, Im, Is) ----
    add("i2", "I", "storage", _sizes("xlarge", "2xlarge", "4xlarge", "8xlarge"))
    add("hs1", "H", "storage", _sizes("8xlarge",))
    add("i3", "I", "storage", _sizes("large", "xlarge", "2xlarge", "4xlarge", "8xlarge", "16xlarge", "metal"))
    add("i3en", "I", "storage", _sizes("large", "xlarge", "2xlarge", "3xlarge", "6xlarge", "12xlarge", "24xlarge", "metal"))
    add("i4i", "I", "storage", _sizes("large", "xlarge", "2xlarge", "4xlarge", "8xlarge", "16xlarge", "32xlarge", "metal"))
    add("im4gn", "I", "storage", _sizes("large", "xlarge", "2xlarge", "4xlarge", "8xlarge", "16xlarge"))
    add("is4gen", "I", "storage", _sizes("medium", "large", "xlarge", "2xlarge", "4xlarge", "8xlarge"))
    add("d2", "D", "storage", _sizes("xlarge", "2xlarge", "4xlarge", "8xlarge"))
    add("d3", "D", "storage", _sizes("xlarge", "2xlarge", "4xlarge", "8xlarge"))
    add("d3en", "D", "storage", _sizes("xlarge", "2xlarge", "4xlarge", "6xlarge", "8xlarge", "12xlarge"))
    add("h1", "H", "storage", _sizes("2xlarge", "4xlarge", "8xlarge", "16xlarge"))

    return fam


#: Families released in 2021+ are offered in fewer regions; fraction of the
#: 17 regions carrying each family (1.0 = everywhere).
_NEW_FAMILY_COVERAGE = {
    "m6a": 0.5, "m6id": 0.5, "c6a": 0.5, "c6id": 0.5, "r6a": 0.5, "r6id": 0.5,
    "c7g": 0.4, "x2idn": 0.5, "x2iedn": 0.5, "x2iezn": 0.4, "g5": 0.6,
    "g5g": 0.4, "dl1": 0.2, "trn1": 0.2, "inf1": 0.7, "vt1": 0.4, "f1": 0.5,
    "p4d": 0.4, "p4de": 0.2, "p3dn": 0.4, "i4i": 0.6, "im4gn": 0.5,
    "is4gen": 0.5, "d3": 0.7, "d3en": 0.6, "x2gd": 0.6, "m5zn": 0.6,
    "g4ad": 0.6, "a1": 0.6,
}
_DEFAULT_COVERAGE = 0.92


def default_regions() -> List[Region]:
    """17 regions whose availability-zone counts sum to 63 (paper Sec. 3.1)."""
    spec = [
        ("us-east-1", "us", 6),
        ("us-east-2", "us", 3),
        ("us-west-1", "us", 3),
        ("us-west-2", "us", 4),
        ("ca-central-1", "ca", 3),
        ("sa-east-1", "sa", 3),
        ("eu-west-1", "eu", 4),
        ("eu-west-2", "eu", 4),
        ("eu-west-3", "eu", 3),
        ("eu-central-1", "eu", 4),
        ("eu-north-1", "eu", 3),
        ("ap-northeast-1", "ap", 4),
        ("ap-northeast-2", "ap", 4),
        ("ap-southeast-1", "ap", 4),
        ("ap-southeast-2", "ap", 4),
        ("ap-south-1", "ap", 4),
        ("ap-east-1", "ap", 3),
    ]
    regions = [Region(code, cont, az) for code, cont, az in spec]
    assert sum(r.az_count for r in regions) == 63
    return regions


@dataclass
class Catalog:
    """The full simulated-cloud catalog with a deterministic offering matrix.

    Parameters
    ----------
    seed:
        Controls the pseudo-random offering matrix (which regions carry which
        families, and how many zones per region carry each type).
    families, regions:
        Override the default lineup, mainly for small test catalogs.
    """

    seed: int = 0
    families: List[InstanceFamily] = field(default_factory=default_families)
    regions: List[Region] = field(default_factory=default_regions)

    def __post_init__(self):
        self._types: Dict[str, InstanceType] = {}
        for family in self.families:
            for size in family.sizes:
                itype = InstanceType(family, size)
                self._types[itype.name] = itype
        self._regions: Dict[str, Region] = {r.code: r for r in self.regions}
        self._offering_cache: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        # guards the supported_zones() memo
        self._cache_lock = threading.Lock()

    # -- lookup -----------------------------------------------------------

    @property
    def instance_types(self) -> List[InstanceType]:
        """All instance types, in deterministic (insertion) order."""
        return list(self._types.values())

    @property
    def instance_type_names(self) -> List[str]:
        return list(self._types.keys())

    def instance_type(self, name: str) -> InstanceType:
        try:
            return self._types[name]
        except KeyError:
            raise UnknownInstanceTypeError(f"unknown instance type {name!r}") from None

    def has_instance_type(self, name: str) -> bool:
        return name in self._types

    def region(self, code: str) -> Region:
        try:
            return self._regions[code]
        except KeyError:
            raise UnknownRegionError(f"unknown region {code!r}") from None

    def has_region(self, code: str) -> bool:
        return code in self._regions

    #: Canonical class presentation order used by the paper's heatmaps:
    #: general (T, M, A), compute (C), memory (R, X, Z), accelerated
    #: (P, G, DL, Inf, F, VT), then storage (I, D, H).
    CLASS_ORDER = (
        "T", "M", "A", "C", "R", "X", "Z",
        "P", "G", "DL", "Trn", "Inf", "F", "VT",
        "I", "D", "H",
    )

    @cached_property
    def classes(self) -> List[str]:
        """Instance classes present in the catalog, in the paper's order."""
        present = {fam.class_letter for fam in self.families}
        ordered = [c for c in self.CLASS_ORDER if c in present]
        ordered.extend(sorted(present - set(self.CLASS_ORDER)))
        return ordered

    def types_in_class(self, class_letter: str) -> List[InstanceType]:
        return [t for t in self._types.values() if t.class_letter == class_letter]

    # -- offering matrix ---------------------------------------------------

    def _family_region_supported(self, family: InstanceFamily, region: Region) -> bool:
        coverage = _NEW_FAMILY_COVERAGE.get(family.name, _DEFAULT_COVERAGE)
        return stable_uniform("fam-region", self.seed, family.name, region.code) < coverage

    def supported_zones(self, itype: InstanceType | str, region: Region | str) -> Tuple[str, ...]:
        """Zones of ``region`` that offer ``itype`` (possibly empty).

        A supported type is offered in 1..az_count zones; bigger sizes tend
        to be present in fewer zones, mirroring real offering sparsity.
        """
        if isinstance(itype, str):
            itype = self.instance_type(itype)
        if isinstance(region, str):
            region = self.region(region)
        key = (itype.name, region.code)
        cached = self._offering_cache.get(key)
        if cached is not None:
            return cached
        zones: Tuple[str, ...]
        if not self._family_region_supported(itype.family, region):
            zones = ()
        else:
            frac = stable_range(0.55, 1.01, "zones", self.seed, itype.name, region.code)
            frac -= 0.03 * max(0, itype.size_rank - _SIZE_RANK["4xlarge"])
            count = max(1, min(region.az_count, round(region.az_count * frac)))
            all_zones = region.zones
            start = int(stable_uniform("zone-start", self.seed, itype.name, region.code) * region.az_count)
            zones = tuple(sorted(all_zones[(start + i) % region.az_count] for i in range(count)))
        with self._cache_lock:
            self._offering_cache[key] = zones
        return zones

    def is_offered(self, itype: InstanceType | str, region: Region | str) -> bool:
        return bool(self.supported_zones(itype, region))

    def regions_offering(self, itype: InstanceType | str) -> List[Region]:
        if isinstance(itype, str):
            itype = self.instance_type(itype)
        return [r for r in self.regions if self.is_offered(itype, r)]

    def offering_map(self) -> Dict[str, Dict[str, int]]:
        """Nested dict {instance_type: {region: zone_count}} (paper Sec. 3.2).

        This is exactly the structure SpotLake's bin-packing query planner
        consumes.
        """
        result: Dict[str, Dict[str, int]] = {}
        for itype in self._types.values():
            inner: Dict[str, int] = {}
            for region in self.regions:
                zones = self.supported_zones(itype, region)
                if zones:
                    inner[region.code] = len(zones)
            if inner:
                result[itype.name] = inner
        return result

    def all_pools(self) -> List[Tuple[str, str, str]]:
        """All (instance_type, region, zone) capacity pools in the catalog."""
        pools: List[Tuple[str, str, str]] = []
        for itype in self._types.values():
            for region in self.regions:
                for zone in self.supported_zones(itype, region):
                    pools.append((itype.name, region.code, zone))
        return pools

    def summary(self) -> Dict[str, int]:
        """Headline catalog sizes (compare with the paper's 547/17/63)."""
        return {
            "instance_types": len(self._types),
            "regions": len(self.regions),
            "availability_zones": sum(r.az_count for r in self.regions),
            "families": len(self.families),
        }
