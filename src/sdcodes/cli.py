"""Command-line front end.

Exit codes: 0 success, 2 verification mismatch, 3 resource budget
exceeded, 4 bad input.  Primary outputs are deterministic; every file
written gets a RunManifest sidecar recording parameters, input and
output digests, thread count, and wall time (the only field allowed to
differ between identical reruns).  Progress goes to stderr, stdout
stays machine-parseable.

`reproduce` checks every row of a published code table the same way:
the named code is singly even and self-dual, and its minimum weight and
enumerator family equal the ones the registry records for it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import tables
from .circulant import (
    SearchRules,
    build_four_circulant,
    save_pairs,
    search_four_circulant,
    search_orbits,
)
from .codes import LinearCode, ParityClass, is_self_dual, load_code, parity_class, subtract_coordinates
from .equivalence import classification_report, classify
from .errors import DomainError, IntegrityError, ParseError, ResourceLimitError
from .neighbors import extremal_neighbor_survey, neighbor_from_support
from .wenum import (
    FamilyParams,
    FamilyTag,
    ShadowDistribution,
    WeightDistribution,
    check_shadow_balance,
    classify_enumerator,
    extremal_min_weight,
    family_profile,
    shadow_distribution,
    solve_shadow_balance,
    weight_distribution,
)

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_RESOURCE = 3
EXIT_INPUT = 4

# main() exits with the code of the first kind an error is an instance of;
# an OSError is an input or output path that cannot be read or written
_EXIT_CODES = {
    ParseError: EXIT_INPUT,
    DomainError: EXIT_INPUT,
    OSError: EXIT_INPUT,
    ResourceLimitError: EXIT_RESOURCE,
    IntegrityError: EXIT_MISMATCH,
}

TABLE_IDS = ("T1", "T2", "Tnei2", "Td10", "T4", "T5", "T6", "P3", "P5", "C7")

# circulant blocks above this need --extended, the extended-scale contract: at a
# fixed d the pair list grows as 4^block (block 15, d = 10 lists 324480 pairs)
SEARCH_BLOCK_EXTENDED = 10


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as input errors, not exit 2."""

    def error(self, message):
        raise ParseError(message)


# ---------------------------------------------------------------------------
# manifests

@dataclass
class RunManifest:
    command: str
    parameters: Dict[str, object]
    input_digests: Dict[str, str]
    thread_count: int
    wall_time_s: float
    output_digests: Dict[str, str] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "inputs": self.input_digests,
            "threads": self.thread_count,
            "wall_time_s": self.wall_time_s,
            "outputs": self.output_digests,
        }

    def write_beside(self, primary: Path) -> None:
        self.output_digests[primary.name] = _digest_file(primary)
        side = primary.with_name(primary.name + ".manifest.json")
        side.write_text(json.dumps(self.to_json(), indent=1, sort_keys=True) + "\n")


def _digest_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _resolve_code(spec: str) -> Tuple[LinearCode, str]:
    """A code argument is a registry name or a code file path."""
    if spec in tables.known_code_names():
        return tables.named_code(spec), "registry:" + spec
    if os.path.isfile(spec):
        return load_code(spec), _digest_file(Path(spec))
    raise DomainError(f"{spec!r} is neither a known code name nor an existing file")


def _parse_int_list(text: str, what: str) -> Tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        raise DomainError(f"{what} must be a comma-separated integer list, got {text!r}")


def _check_out(out: Optional[str]) -> None:
    """Refuse an output path that cannot be written before any work
    starts, without creating or truncating it."""
    if out is None:
        return
    path = Path(out)
    if path.is_dir():
        raise DomainError(f"--out {out} is a directory")
    if not path.parent.is_dir():
        raise DomainError(f"--out {out}: {path.parent} is not an existing directory")


def _emit(obj: dict, out: Optional[str], manifest: Optional[RunManifest]) -> None:
    text = json.dumps(obj, indent=1, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)
        if manifest is not None:
            manifest.write_beside(Path(out))


# ---------------------------------------------------------------------------
# analyze

def _sparse(counts: Sequence[int]) -> Dict[str, int]:
    return {str(w): int(c) for w, c in enumerate(counts) if c}


def _family_json(fp: Optional[FamilyParams]) -> Optional[dict]:
    if fp is None:
        return None
    return {
        "family": fp.family.value,
        "beta": fp.beta,
        "gamma": fp.gamma,
        "note": fp.note,
    }


def _family_of(w: WeightDistribution, s: ShadowDistribution) -> Optional[FamilyParams]:
    """The catalogued family of a distribution, or None where (n, d) has none."""
    try:
        return classify_enumerator(w, s)
    except DomainError:
        return None


def cmd_analyze(args) -> int:
    started = time.monotonic()
    code, digest = _resolve_code(args.code)
    w = weight_distribution(code)
    sd = is_self_dual(code)
    pc = parity_class(code)
    shadow = None
    fp = None
    if sd and pc is ParityClass.SINGLY_EVEN:
        shadow = shadow_distribution(code)
        fp = _family_of(w, shadow)
    report = {
        "name": code.label(),
        "n": code.n,
        "k": code.k,
        "self_dual": sd,
        "parity": pc.value,
        "min_weight": w.min_weight,
        "weight_distribution": _sparse(w.counts),
        "shadow_distribution": _sparse(shadow.counts) if shadow else None,
        "family": _family_json(fp),
    }
    manifest = RunManifest(
        "analyze",
        {"code": args.code},
        {args.code: digest},
        1,
        round(time.monotonic() - started, 3),
    )
    _emit(report, args.out, manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# search

def _progress_printer(prefix: str):
    def cb(done: int, total: int) -> None:
        sys.stderr.write(f"{prefix}: {done}/{total} rows\n")
        sys.stderr.flush()

    return cb


def cmd_search(args) -> int:
    if args.block > SEARCH_BLOCK_EXTENDED and not args.extended:
        raise ResourceLimitError(
            f"block {args.block} search is an extended-scale run; pass --extended"
        )
    if args.weight_bound is not None or args.congruence != "default":
        congruence: Optional[int]
        if args.congruence == "default":
            congruence = 1
        elif args.congruence == "none":
            congruence = None
        else:
            try:
                congruence = int(args.congruence)
            except ValueError:
                raise DomainError(
                    f"--congruence must be 1, 3 or 'none', got {args.congruence!r}"
                ) from None
        rules = SearchRules(weight_bound=args.weight_bound, congruence=congruence)
    else:
        rules = SearchRules.for_target(args.dmin)
    started = time.monotonic()
    pairs = search_four_circulant(
        args.block,
        args.dmin,
        rules=rules,
        threads=args.threads,
        progress=_progress_printer(f"search block={args.block}"),
    )
    save_pairs(args.out, pairs)
    manifest = RunManifest(
        "search",
        {
            "block": args.block,
            "dmin": args.dmin,
            "weight_bound": rules.weight_bound,
            "congruence": rules.congruence,
        },
        {},
        args.threads,
        round(time.monotonic() - started, 3),
    )
    manifest.write_beside(Path(args.out))
    sys.stderr.write(f"search: {len(pairs)} pairs -> {args.out}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# neighbor / neighbors / subtract / classify

def cmd_neighbor(args) -> int:
    started = time.monotonic()
    code, digest = _resolve_code(args.code)
    supp = _parse_int_list(args.supp, "--supp")
    out_code = neighbor_from_support(code, supp, name=args.name)
    manifest = RunManifest(
        "neighbor",
        {"code": args.code, "supp": list(supp), "name": args.name},
        {args.code: digest},
        1,
        round(time.monotonic() - started, 3),
    )
    _emit(out_code.to_json(), args.out, manifest)
    return EXIT_OK


def cmd_neighbors(args) -> int:
    started = time.monotonic()
    code, digest = _resolve_code(args.code)
    digests = {args.code: digest}
    known = []
    for spec in _parse_str_list(args.known):
        kc, kd = _resolve_code(spec)
        digests[spec] = kd
        known.append(kc)
    classes = extremal_neighbor_survey(
        code, args.dmin, known=known, extended=args.extended, threads=args.threads
    )
    report = classification_report(classes)
    report["base"] = code.label()
    report["dmin"] = args.dmin
    manifest = RunManifest(
        "neighbors",
        {"code": args.code, "dmin": args.dmin, "known": _parse_str_list(args.known)},
        digests,
        args.threads,
        round(time.monotonic() - started, 3),
    )
    _emit(report, args.out, manifest)
    return EXIT_OK


def _parse_str_list(text: Optional[str]) -> List[str]:
    if not text:
        return []
    return [tok for tok in text.split(",") if tok]


def cmd_subtract(args) -> int:
    started = time.monotonic()
    code, digest = _resolve_code(args.code)
    coords = _parse_int_list(args.coords, "--coords")
    if len(coords) != 2:
        raise DomainError(f"--coords needs exactly two coordinates, got {len(coords)}")
    out_code = subtract_coordinates(code, coords[0], coords[1])
    if args.name:
        out_code = out_code.with_name(args.name)
    manifest = RunManifest(
        "subtract",
        {"code": args.code, "coords": list(coords), "name": args.name},
        {args.code: digest},
        1,
        round(time.monotonic() - started, 3),
    )
    _emit(out_code.to_json(), args.out, manifest)
    return EXIT_OK


def _collect_code_files(specs: Sequence[str]) -> List[Path]:
    out: List[Path] = []
    for spec in specs:
        p = Path(spec)
        if p.is_dir():
            out.extend(sorted(q for q in p.iterdir() if q.suffix == ".json"))
        elif p.is_file():
            out.append(p)
        else:
            raise DomainError(f"{spec!r} is neither a file nor a directory")
    if not out:
        raise DomainError("no code files to classify")
    return out


def cmd_classify(args) -> int:
    started = time.monotonic()
    files = _collect_code_files(args.inputs)
    codes = []
    digests = {}
    for p in files:
        c = load_code(p)
        if c.name is None:
            c = c.with_name(p.stem)
        codes.append(c)
        digests[str(p)] = _digest_file(p)
    classes = classify(codes)
    report = classification_report(classes)
    manifest = RunManifest(
        "classify",
        {"inputs": [str(p) for p in files]},
        digests,
        1,
        round(time.monotonic() - started, 3),
    )
    _emit(report, args.out, manifest)
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve-shadow-balance

def cmd_solve(args) -> int:
    got = solve_shadow_balance(args.a_intercept, args.a_slope, args.b_intercept, args.b_slope)
    if got == "all":
        body = {"kind": "all", "value": None}
    elif got is None:
        body = {"kind": "none", "value": None}
    else:
        body = {"kind": "unique", "value": str(got)}
    _emit(body, None, None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reproduce

class _RowPrinter:
    def __init__(self, table: str):
        self.table = table
        self.passed = 0
        self.total = 0

    def row(self, name: str, ok: bool, detail: str = "") -> None:
        self.total += 1
        self.passed += bool(ok)
        status = "pass" if ok else "fail"
        line = f"{self.table}\t{name}\t{status}"
        if detail:
            line += f"\t{detail}"
        sys.stdout.write(line + "\n")
        sys.stdout.flush()

    def finish(self) -> int:
        sys.stdout.write(f"{self.table}\tsummary\t{self.passed}/{self.total}\n")
        return EXIT_OK if self.passed == self.total else EXIT_MISMATCH


def _check_row(name: str) -> Tuple[bool, str]:
    """One published row: a singly even self-dual code with its d and family."""
    code = tables.named_code(name)
    if not is_self_dual(code) or parity_class(code) is not ParityClass.SINGLY_EVEN:
        return False, "not a singly even self-dual code"
    w = weight_distribution(code)
    want_d = tables.expected_min_weight(name)
    if w.min_weight != want_d:
        return False, f"min weight {w.min_weight}, expected {want_d}"
    fp, want = _family_of(w, shadow_distribution(code)), tables.expected_family(name)
    if fp != want:
        return False, f"family {_family_json(fp)}, expected {_family_json(want)}"
    if fp is None:
        return True, f"d={want_d}"
    return True, f"beta={fp.beta}" if fp.gamma is None else f"beta={fp.beta} gamma={fp.gamma}"


# published table -> (its registry rows, the name prefixes it lists)
_ROW_TABLES = {
    "T1": (partial(tables.circulant_table, 12), ("",)),
    "Td10": (partial(tables.circulant_table, 10), ("",)),
    "T2": (partial(tables.chain_table, 60), ("D",)),
    "Tnei2": (partial(tables.chain_table, 60), ("E", "F")),
    "T4": (partial(tables.chain_table, 60), ("H", "J", "K", "L")),
    "T5": (lambda: tables.subtraction_table()["codes"], ("",)),
    "T6": (partial(tables.chain_table, 58), ("D", "E", "F", "G", "H")),
}


def _reproduce_rows(table: str) -> int:
    rows, prefixes = _ROW_TABLES[table]
    names = [row["name"] for row in rows() if row["name"].startswith(prefixes)]
    printer = _RowPrinter(table)
    for name in names:
        printer.row(name, *_check_row(name))
    if table == "T5":
        classes = classify([tables.named_code(name) for name in names])
        got = sorted(sorted(m.label() for m in cl.members) for cl in classes)
        want = sorted(sorted(cl) for cl in tables.subtraction_table()["classes"])
        printer.row(
            "classes",
            got == want,
            f"{[len(cl) for cl in got]} classes" if got == want else f"got {got}",
        )
    return printer.finish()


def _reproduce_balance() -> int:
    """B_{d-1} = A_d on W58,1, whose A_d and B_{d-1} are linear in gamma."""
    printer = _RowPrinter("C7")
    d = extremal_min_weight(58)
    profiles = [family_profile(FamilyTag.W58_1, gamma=g) for g in (0, 1)]
    (a, b), (a1, b1) = ((w.counts[d], s.counts[d - 1]) for w, s in profiles)
    got = solve_shadow_balance(a, a1 - a, b, b1 - b)
    printer.row("solver", got == 55, f"gamma={got}")
    for gamma, expect_holds in ((55, True), (54, False), (56, False)):
        outcome = check_shadow_balance(*family_profile(FamilyTag.W58_1, gamma=gamma), d)
        holds = outcome.status.value == "holds"
        printer.row(
            f"balance-gamma-{gamma}",
            holds == expect_holds,
            outcome.note or outcome.status.value,
        )
    return printer.finish()


def _reproduce_search_classes(table: str, dmin: int, want_classes: int, threads: int) -> int:
    printer = _RowPrinter(table)
    reps, sizes = search_orbits(15, dmin, threads=threads, progress=_progress_printer(f"{table} search"))
    printer.row("search", bool(reps), f"{sum(sizes)} pairs")
    sys.stderr.write(f"{table}: {len(reps)} affine orbits\n")
    codes = [c for c in map(build_four_circulant, reps) if weight_distribution(c).min_weight == dmin]
    sys.stderr.write(f"{table}: {len(codes)} orbit representatives at d={dmin}\n")
    classes = classify(codes)
    printer.row(
        "classes",
        len(classes) == want_classes,
        f"{len(classes)} classes, expected {want_classes}",
    )
    return printer.finish()


# block-15 search table -> (d, published number of classes)
_SEARCH_TABLES = {"P3": (12, 13), "P5": (10, 113)}


def cmd_reproduce(args) -> int:
    table = args.table
    if table in _SEARCH_TABLES:
        if not args.extended:
            raise ResourceLimitError(f"{table} is an extended-scale run; pass --extended")
        return _reproduce_search_classes(table, *_SEARCH_TABLES[table], args.threads)
    if table == "C7":
        return _reproduce_balance()
    return _reproduce_rows(table)


# ---------------------------------------------------------------------------
# parser

def build_parser() -> _Parser:
    parser = _Parser(prog="sdcodes", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    default_threads = os.cpu_count() or 1

    p = sub.add_parser("analyze", help="report distribution, shadow, and family of a code")
    p.add_argument("--code", required=True, help="registry name or code file")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("search", help="four-circulant search over a block size")
    p.add_argument("--block", type=int, required=True)
    p.add_argument("--dmin", type=int, required=True)
    p.add_argument("--weight-bound", type=int, default=None)
    p.add_argument("--congruence", default="default", help="1, 3, or 'none'")
    p.add_argument("--threads", type=int, default=default_threads)
    p.add_argument("--extended", action="store_true")
    p.add_argument("--out", required=True, help="pair file to write")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("neighbor", help="single self-dual neighbor from a support")
    p.add_argument("--code", required=True)
    p.add_argument("--supp", required=True, help="comma-separated 1-indexed support")
    p.add_argument("--name", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_neighbor)

    p = sub.add_parser("neighbors", help="survey extremal self-dual neighbors")
    p.add_argument("--code", required=True)
    p.add_argument("--dmin", type=int, required=True)
    p.add_argument("--known", default=None, help="comma-separated names or files to exclude")
    p.add_argument("--threads", type=int, default=default_threads)
    p.add_argument("--extended", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_neighbors)

    p = sub.add_parser("subtract", help="delete two agreeing coordinates")
    p.add_argument("--code", required=True)
    p.add_argument("--coords", required=True, help="two 1-indexed coordinates, comma-separated")
    p.add_argument("--name", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_subtract)

    p = sub.add_parser("classify", help="partition code files into equivalence classes")
    p.add_argument("--in", dest="inputs", action="append", required=True,
                   help="code file or directory; repeatable")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("reproduce", help="re-derive a published table or proposition")
    p.add_argument("table", choices=TABLE_IDS)
    p.add_argument("--threads", type=int, default=default_threads)
    p.add_argument("--extended", action="store_true")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("solve-shadow-balance", help="solve a + a_slope*t = b + b_slope*t")
    p.add_argument("a_intercept", type=int)
    p.add_argument("a_slope", type=int)
    p.add_argument("b_intercept", type=int)
    p.add_argument("b_slope", type=int)
    p.set_defaults(func=cmd_solve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "threads", 1) < 1:
            raise ParseError(f"--threads must be at least 1, got {args.threads}")
        _check_out(getattr(args, "out", None))
        return args.func(args)
    except tuple(_EXIT_CODES) as e:
        sys.stderr.write(f"error: {e}\n")
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(e, kind))


if __name__ == "__main__":
    raise SystemExit(main())
