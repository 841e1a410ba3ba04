"""Named-code registry backed by the versioned data files shipped in
sdcodes/data.

Every published code is one record, read once from its data file: the
recipe (a block-15 circulant pair for the C/G codes, or a neighbor step
or coordinate subtraction from a named base code), the minimum weight
from the file's `dmin` field, and the published enumerator family.  A
record is built into a code only on its first `named_code` call, base
codes first.  Data files are checksummed; a mismatch is a corrupted
installation, not a recoverable condition.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Optional, Tuple

from .circulant import CirculantPair, build_four_circulant
from .codes import LinearCode, subtract_coordinates
from .errors import DomainError, IntegrityError
from .gf2core import parse01
from .neighbors import neighbor_from_support
from .wenum import FamilyParams, FamilyTag

__all__ = [
    "DATA_FILES",
    "load_data",
    "named_code",
    "known_code_names",
    "expected_family",
    "expected_min_weight",
    "circulant_table",
    "chain_table",
    "subtraction_table",
    "equivalent_pairs",
    "inequivalent_names",
    "published_enumerator",
]

DATA_VERSION = 1
DATA_FILES = (
    "pairs60_d12.json",
    "pairs60_d10.json",
    "neighbor_chains60.json",
    "subtract58.json",
    "neighbor_chains58.json",
    "equivalences.json",
    "enumerators.json",
)

_DATA_CACHE: Dict[str, dict] = {}
_CHECKSUMS: Dict[str, str] = {}
_CODE_CACHE: Dict[str, LinearCode] = {}
_REGISTRY: Dict[str, _Record] = {}


def _data_dir():
    return resources.files(__package__).joinpath("data")


def _checksums() -> Dict[str, str]:
    if not _CHECKSUMS:
        text = _data_dir().joinpath("CHECKSUMS.sha256").read_text(encoding="ascii")
        for line in text.splitlines():
            if line.strip():
                digest, filename = line.split()
                _CHECKSUMS[filename] = digest
    return _CHECKSUMS


def load_data(filename: str) -> dict:
    """Parse a shipped data file after verifying its sha256."""
    cached = _DATA_CACHE.get(filename)
    if cached is not None:
        return cached
    if filename not in DATA_FILES:
        raise DomainError(f"unknown data file {filename!r}")
    raw = _data_dir().joinpath(filename).read_bytes()
    want = _checksums().get(filename)
    if want is None:
        raise IntegrityError(f"no checksum recorded for {filename}")
    got = hashlib.sha256(raw).hexdigest()
    if got != want:
        raise IntegrityError(
            f"{filename} is corrupted: sha256 {got} != recorded {want}"
        )
    body = json.loads(raw)
    if body.get("version") != DATA_VERSION:
        raise IntegrityError(
            f"{filename} has data version {body.get('version')}, expected {DATA_VERSION}"
        )
    _DATA_CACHE[filename] = body
    return body


@dataclass(frozen=True)
class _Record:
    """One published code: how it is built, its d and its family.

    A code is a four-circulant code of `pair`, or comes from the code
    named `base`: as its neighbour on `supp`, or with the two `coords`
    deleted.  Nothing is built until `named_code` asks for it.
    """

    dmin: int
    family: Optional[FamilyParams]
    pair: Optional[CirculantPair] = None
    base: Optional[str] = None
    supp: Optional[Tuple[int, ...]] = None
    coords: Optional[Tuple[int, int]] = None

    def build(self, name: str) -> LinearCode:
        if self.pair is not None:
            return build_four_circulant(self.pair, name=name)
        if self.supp is not None:
            return neighbor_from_support(named_code(self.base), self.supp, name=name)
        return subtract_coordinates(named_code(self.base), *self.coords).with_name(name)


def _registry() -> Dict[str, _Record]:
    if _REGISTRY:
        return _REGISTRY

    def add(name: str, record: _Record) -> None:
        if name in _REGISTRY:
            raise IntegrityError(f"duplicate code name {name} in data files")
        _REGISTRY[name] = record

    for filename in ("pairs60_d12.json", "pairs60_d10.json"):
        body = load_data(filename)
        for row in body["codes"]:
            beta = row.get("beta")
            pair = CirculantPair(body["block"], parse01(row["ra"])[1], parse01(row["rb"])[1])
            family = None if beta is None else FamilyParams(FamilyTag.W60_1, beta=beta)
            add(row["name"], _Record(body["dmin"], family, pair=pair))

    body = load_data("neighbor_chains60.json")
    for step in body["steps"]:
        family = FamilyParams(FamilyTag.W60_1, beta=step["beta"])
        supp = tuple(step["supp"])
        add(step["name"], _Record(body["dmin"], family, base=step["base"], supp=supp))

    body = load_data("subtract58.json")
    family = FamilyParams(FamilyTag.W58_2, beta=body["beta"], gamma=body["gamma"])
    for row in body["codes"]:
        coords = tuple(row["coords"])
        add(row["name"], _Record(body["dmin"], family, base=body["base"], coords=coords))

    body = load_data("neighbor_chains58.json")
    for step in body["steps"]:
        family = FamilyParams(FamilyTag.W58_2, beta=step["beta"], gamma=step["gamma"])
        supp = tuple(step["supp"])
        add(step["name"], _Record(body["dmin"], family, base=step["base"], supp=supp))
    return _REGISTRY


def _record(name: str) -> _Record:
    record = _registry().get(name)
    if record is None:
        raise DomainError(f"unknown code name {name!r}")
    return record


def known_code_names() -> List[str]:
    return list(_registry())


def named_code(name: str) -> LinearCode:
    """Resolve a published code name, building through its chain."""
    cached = _CODE_CACHE.get(name)
    if cached is None:
        cached = _CODE_CACHE[name] = _record(name).build(name)
    return cached


def expected_min_weight(name: str) -> int:
    return _record(name).dmin


def expected_family(name: str) -> Optional[FamilyParams]:
    """The published enumerator family, or None where none is claimed."""
    return _record(name).family


def circulant_table(dmin: int) -> List[dict]:
    out = [
        {"name": name, "pair": r.pair, "beta": r.family.beta if r.family else None}
        for name, r in _registry().items()
        if r.pair is not None and r.dmin == dmin
    ]
    if not out:
        raise DomainError(f"no circulant table for minimum weight {dmin}")
    return out


def chain_table(n: int) -> List[dict]:
    filename = {60: "neighbor_chains60.json", 58: "neighbor_chains58.json"}.get(n)
    if filename is None:
        raise DomainError(f"no neighbor chain table for length {n}")
    return [dict(step) for step in load_data(filename)["steps"]]


def subtraction_table() -> dict:
    body = load_data("subtract58.json")
    return {
        "base": body["base"],
        "beta": body["beta"],
        "gamma": body["gamma"],
        "codes": [dict(row) for row in body["codes"]],
        "classes": [list(cl) for cl in body["classes"]],
    }


def equivalent_pairs() -> List[Tuple[str, str]]:
    return [tuple(p) for p in load_data("equivalences.json")["pairs"]]


def inequivalent_names() -> List[str]:
    return list(load_data("equivalences.json")["inequivalent"])


def published_enumerator(name: str) -> Dict[int, int]:
    """The listed partial weight enumerator (weight -> count)."""
    entries = load_data("enumerators.json")["entries"]
    if name not in entries:
        raise DomainError(f"no published enumerator for {name!r}")
    entry = entries[name]
    return dict(zip(entry["weights"], entry["counts"]))
