"""The three benchmark jobs and their output checks.

Each job takes a `random.Random` made from the workload seed and the job
index, builds its inputs from it, calls the public sdcodes API with
`threads` workers, and records every output check in a `Checks`.  Library
functions are looked up on their modules at call time, so the wrappers of
a traced run see the benchmark's own calls too.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict, List

import sdcodes
from sdcodes import circulant, tables

# search: two whole-space runs with default rules.  Block 9 at d=8 keeps
# 972 of 1944 min-weight candidates, block 11 at d=10 rejects all 2420;
# together 22% of candidates pass.  The digest is sha256 of format_pairs.
SEARCHES = (
    (9, 8, 972, "ea1752f014271560b04a54dc19def4f384cd567aa0b3428703d28bbc3d2a16bd"),
    (11, 10, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
)
SEARCH_SAMPLE = 4

# survey: the block-7 pair below, coordinates 11 and 24 removed, then a
# seeded coordinate permutation.  Survivor and class counts do not depend
# on the permutation, so they are pinned for every seed.
SURVEY_PAIR = "0001000;1100101"
SURVEY_COORDS = (11, 24)
SURVEY_DMIN = 6
SURVEY_SURVIVORS = 864
SURVEY_CLASSES = 1


class Checks:
    """Output checks of one job: how many ran, and the names that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: List[str] = []

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


def tables_job(rng: random.Random, checks: Checks, threads: int) -> None:
    """A published equivalent pair of length-58 codes: W, S and family of
    each against the registry, then are_equivalent and its certificate."""
    classes = tables.subtraction_table()["classes"]
    pairs = [(a, b) for members in classes for i, a in enumerate(members) for b in members[i + 1 :]]
    names = list(rng.choice(pairs))
    rng.shuffle(names)
    codes = [tables.named_code(name) for name in names]
    for name, code in zip(names, codes):
        w = sdcodes.weight_distribution(code)
        s = sdcodes.shadow_distribution(code)
        family = sdcodes.classify_enumerator(w, s)
        checks.check(f"{name} min weight", w.min_weight == tables.expected_min_weight(name))
        want = tables.expected_family(name)
        if want is not None:
            checks.check(f"{name} family", family == want)
        try:
            published = tables.published_enumerator(name)
        except sdcodes.DomainError:
            published = {}
        for weight, count in published.items():
            checks.check(f"{name} A_{weight}", w.counts[weight] == count)
    cert = sdcodes.are_equivalent(codes[0], codes[1])
    checks.check(f"{names[0]} ~ {names[1]}", cert.equivalent)
    checks.check("certificate", sdcodes.verify_certificate(codes[0], codes[1], cert))


def search_job(rng: random.Random, checks: Checks, threads: int) -> None:
    """Whole-space four-circulant searches; a seeded sample of hits is
    re-checked through weight_distribution, which shares no code with the
    staged minimum-weight scan."""
    for block, d, want_count, want_digest in SEARCHES:
        pairs = sdcodes.search_four_circulant(block, d, threads=threads)
        checks.check(f"block {block} d={d} count", len(pairs) == want_count)
        digest = hashlib.sha256(circulant.format_pairs(pairs).encode()).hexdigest()
        checks.check(f"block {block} d={d} digest", digest == want_digest)
        for p in rng.sample(pairs, min(SEARCH_SAMPLE, len(pairs))):
            checks.check(f"{p.serialize()} self-dual", sdcodes.self_dual_condition(p))
            w = sdcodes.weight_distribution(sdcodes.build_four_circulant(p))
            checks.check(f"{p.serialize()} min weight", w.min_weight >= d)


def survey_job(rng: random.Random, checks: Checks, threads: int) -> None:
    """Neighbour survey of a seeded presentation of one length-26 code."""
    base = sdcodes.build_four_circulant(sdcodes.CirculantPair.parse(SURVEY_PAIR))
    base = sdcodes.subtract_coordinates(base, *SURVEY_COORDS)
    images = list(range(1, base.n + 1))
    rng.shuffle(images)
    code = sdcodes.permuted_code(base, images)
    classes = sdcodes.extremal_neighbor_survey(code, SURVEY_DMIN, threads=threads)
    checks.check("class count", len(classes) == SURVEY_CLASSES)
    checks.check("survivor count", sum(len(cl.members) for cl in classes) == SURVEY_SURVIVORS)
    for cl in classes:
        rep = cl.representative
        w = sdcodes.weight_distribution(rep)
        checks.check("representative min weight", w.min_weight is not None and w.min_weight >= SURVEY_DMIN)
        for member, cert in zip(cl.members, cl.certificates):
            checks.check("certificate", sdcodes.verify_certificate(member, rep, cert))


JOBS: Dict[str, Callable[[random.Random, Checks, int], None]] = {
    "tables": tables_job,
    "search": search_job,
    "survey": survey_job,
}


def job_rng(workload: str, seed: int, job: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{job}")
