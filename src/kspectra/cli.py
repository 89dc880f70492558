"""Command-line front end: spectra, searches, form invariants, verification bundles.

Exit codes: 0 success / all checks verified, 1 a verification found a
violation, 2 usage error (bad arguments, input files, --out, or a request
over the memory cap or out of memory), 3 nothing violated but some search was
truncated (see the "inconclusive" entries), 4 internal error (an invariant of
the computation failed).  Reports are deterministic
for a fixed (range, seed) apart from wall-time fields.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from kspectra.gf2n import mk_field
from kspectra.linmap import map_from_json, map_to_json, random_map, random_subspace
from kspectra.permcheck import (
    perm_direct,
    perm_spectral,
    search_counterexample,
    sweep_inverse_plus_linear,
)
from kspectra.quadform import (
    count_zeros,
    expected_h_zero_count,
    max_isotropic_dim,
    restrict_q_to_h,
)
from kspectra.spectra import CSV_CHUNK, kloosterman_spectrum, kloosterman_zeros
from kspectra.zerospace import (
    max_mod16_subspace,
    max_zero_subspace,
    mod16_members,
    mod16_subspace_bound,
    subspace_sum_identity,
    weil_subspace_bound,
    zero_subspace_bound,
)


def _emit(args, text: str) -> None:
    _write(args, (text, "\n"))


def _write(args, pieces) -> None:
    """Write string pieces to --out, or to stdout, as they are produced."""
    if getattr(args, "out", None):
        step = "open"
        try:
            with open(args.out, "w") as fh:
                step = "write"
                fh.writelines(pieces)
        except OSError as exc:  # a bad --out or a full disk is a usage error, not a violation
            raise ValueError(f"cannot {step} --out: {exc}") from exc
        return
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader quit early (| head): drop the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _json(obj) -> str:
    return json.dumps(obj, indent=2)


def _positive_int(text: str) -> int:
    """argparse type for --budget and --samples: a count of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return int(text)


def _span(args, start: int | None = None, end: int | None = None) -> range:
    """n from --from to --to inclusive, else from a bundle's defaults; an
    empty range is a usage error, not a vacuous pass."""
    start = start if args.start is None else args.start
    end = end if args.end is None else args.end
    if start > end:
        raise ValueError(f"empty range: --from {start} is above --to {end}")
    return range(start, end + 1)


def _ctx(args):
    poly = None if args.poly is None else int(args.poly, 0)
    return mk_field(args.n, poly)


# ---------------------------------------------------------------------------
# plain commands
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    spec = kloosterman_spectrum(_ctx(args))
    _write(args, (_csv_chunks if args.format == "csv" else _json_chunks)(spec))
    return 0


def _csv_chunks(spec):
    """The CSV export in pieces of CSV_CHUNK rows, each ending in a newline."""
    yield "elem_hex,value\n"
    yield from spec.to_csv_rows()


def _json_chunks(spec):
    """_json({"n", "kind", "data"}) and a newline, CSV_CHUNK values of data at a time."""
    sep = ",\n    "
    yield f'{{\n  "n": {spec.n},\n  "kind": {json.dumps(spec.kind)},\n  "data": [\n    '
    for s in range(0, spec.data.size, CSV_CHUNK):
        yield (sep if s else "") + sep.join(map(str, spec.data[s:s + CSV_CHUNK].tolist()))
    yield "\n  ]\n}\n"


def cmd_zeros(args) -> int:
    ctx = _ctx(args)
    zeros = sorted(kloosterman_zeros(ctx, include_trivial=args.include_zero))
    count = len(zeros)
    _emit(args, _json({
        "n": ctx.n,
        "zeros": [hex(z) for z in zeros],
        "count": count,
        "ratio_to_2^{n/2}": round(count / 2 ** (ctx.n / 2), 4),
    }))
    return 0


def cmd_zerospace(args) -> int:
    search = max_zero_subspace if args.set == "zeros" else max_mod16_subspace
    rep = search(_ctx(args), node_budget=args.budget)
    _emit(args, _json(rep.to_json()))
    return 0


def cmd_qform(args) -> int:
    ctx = _ctx(args)
    rec = restrict_q_to_h(ctx)
    _emit(args, _json({
        "n": ctx.n,
        "dim_H": rec.m,
        "radical_dim": rec.radical_basis.dim,
        "type": rec.form_type,
        "witt_index": rec.witt_index,
        "zeros": count_zeros(rec),
        "expected_zeros": expected_h_zero_count(ctx.n),
        "max_isotropic_dim": max_isotropic_dim(rec),
    }))
    return 0


def cmd_permcheck(args) -> int:
    ctx = _ctx(args)
    L1 = map_from_json(ctx, json.loads(args.l1))
    L2 = map_from_json(ctx, json.loads(args.l2))
    out: dict = {"n": ctx.n, "l1": map_to_json(ctx, L1), "l2": map_to_json(ctx, L2)}
    code = 0
    if args.method in ("direct", "both"):
        out["direct"] = perm_direct(ctx, L1, L2).to_json()
    if args.method in ("spectral", "both"):
        out["spectral"] = perm_spectral(ctx, L1, L2).to_json()
    if args.method == "both":
        out["agree"] = out["direct"]["is_perm"] == out["spectral"]["is_perm"]
        code = 0 if out["agree"] else 1
    _emit(args, _json(out))
    return code


def cmd_table1(args) -> int:
    lines = []
    if args.side == "right":
        lines.append("n,max_dim")
        for n in _span(args):
            rep = max_zero_subspace(mk_field(n), node_budget=args.budget)
            mark = "" if rep.exhaustive else "?"
            lines.append(f"{n},{rep.best_dim}{mark}")
    else:
        lines.append("n,count,ratio_trunc,ratio_round")
        for n in _span(args):
            count = len(kloosterman_zeros(mk_field(n)))
            ratio = count / 2 ** (n / 2)
            trunc = math.floor(ratio * 100) / 100
            lines.append(f"{n},{count},{trunc:.2f},{round(ratio, 2):.2f}")
    _emit(args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# verification bundles
# ---------------------------------------------------------------------------

def _check_mod16_criterion(args) -> dict:
    violations = []
    for n in _span(args, 4, 16):
        ctx = mk_field(n)
        spec = kloosterman_spectrum(ctx)
        from_spec = np.flatnonzero(spec.data % 16 == 0).astype(np.uint32)
        if not np.array_equal(from_spec, mod16_members(ctx)):
            violations.append({"n": n})
    return {"criterion": "mod16-criterion",
            "statement": "K(a) = 0 mod 16 iff Tr(a) = 0 and q(a) = 0",
            "violations": violations}


def _check_radical(args) -> dict:
    violations = []
    for n in _span(args, 4, 24):
        rec = restrict_q_to_h(mk_field(n))
        want = (1,) if n % 4 == 0 else ()
        if rec.radical_basis.vectors != want:
            violations.append({"n": n, "got": [hex(v) for v in rec.radical_basis.vectors]})
    return {"criterion": "radical",
            "statement": "radical of q|H is {0,1} iff 4 divides n, else {0}",
            "violations": violations}


def _check_quadric_count(args) -> dict:
    violations = []
    for n in _span(args, 4, 24):
        rec = restrict_q_to_h(mk_field(n))
        got = count_zeros(rec)
        want = expected_h_zero_count(n)
        if got != want:
            violations.append({"n": n, "got": got, "want": want})
    return {"criterion": "quadric-count",
            "statement": "zero count of q|H equals the five-case closed form",
            "violations": violations}


def _check_mod16_sharpness(args) -> dict:
    violations, inconclusive = [], []
    for n in _span(args, 5, 12):
        rep = max_mod16_subspace(mk_field(n), node_budget=args.budget)
        bound = mod16_subspace_bound(n)
        if rep.best_dim != bound:
            short = rep.best_dim < bound and not rep.exhaustive
            (inconclusive if short else violations).append(
                {"n": n, "got": rep.best_dim, "bound": bound})
    return {"criterion": "mod16-sharpness",
            "statement": "searches attain the mod16 subspace bound exactly",
            "violations": violations, "inconclusive": inconclusive}


def _check_zero_subspace_bound(args) -> dict:
    violations, inconclusive = [], []
    for n in _span(args, 5, 14):
        ctx = mk_field(n)
        # stopping at the bound would make exceeding it unobservable
        rep = max_zero_subspace(ctx, node_budget=args.budget, stop_at_bound=False)
        if rep.best_dim > zero_subspace_bound(n):
            violations.append({"n": n, "dim": rep.best_dim})
            continue
        if not rep.exhaustive:
            inconclusive.append({"n": n, "dim": rep.best_dim})
        if n % 2 == 0:
            sub = ctx.subfield_elements(n // 2)
            for v in rep.best_basis.span():
                if int(v) and int(v) in sub:
                    violations.append({"n": n, "subfield_element": hex(int(v))})
    return {"criterion": "zero-subspace-bound",
            "statement": "zero-subspace dims stay within the bound; even n avoids the half subfield",
            "violations": violations, "inconclusive": inconclusive}


def _check_inverse_linear_n5(args) -> dict:
    rep = sweep_inverse_plus_linear(mk_field(5))
    violations = []
    if rep.permutations_found:
        violations.append(rep.to_json())
    return {"criterion": "inverse-linear-n5",
            "statement": "no nonzero linear L makes x^-1 + L(x) a permutation at n = 5",
            "candidates_checked": rep.candidates_checked,
            "wall_time": rep.wall_time_s,
            "violations": violations}


def _check_subspace_sum_identity(args) -> dict:
    rng = np.random.default_rng(args.seed)
    samples = args.samples or 100
    violations = []
    for n in _span(args, 5, 12):
        ctx = mk_field(n)
        for _ in range(samples):
            V = random_subspace(rng, n, int(rng.integers(0, n)))
            lhs, rhs = subspace_sum_identity(ctx, V)
            if lhs != rhs:
                violations.append({"n": n, "basis": [hex(v) for v in V.vectors],
                                   "lhs": lhs, "rhs": rhs})
    return {"criterion": "subspace-sum-identity", "seed": args.seed,
            "statement": "sum (K-1)^2 - 1 over V equals 2^(n+k) - 2^(n+1) + 2^k sum K(u^-1) over V-perp",
            "violations": violations}


def _check_weil_bound(args) -> dict:
    violations = []
    for n in _span(args, 4, 20):
        # the per-entry bound |K - 1| <= weil_bound() is asserted by every
        # kloosterman_spectrum build, so only the global sum is left to check
        spec = kloosterman_spectrum(mk_field(n))
        if int(spec.data.sum()) != 1 << n:
            violations.append({"n": n, "kind": "global-sum"})
    for n in range(5, 25):
        if zero_subspace_bound(n) > weil_subspace_bound(n):
            violations.append({"n": n, "kind": "bound-comparison"})
    return {"criterion": "weil-bound",
            "statement": "|K(a)-1| <= 2^(n/2+1) exactly; sum of K over the field is 2^n",
            "violations": violations}


def _check_subfield_zeros(args) -> dict:
    violations = []
    for n in _span(args, 5, 20):
        if n < 5:
            raise ValueError("subfield-zeros needs n >= 5: K(1) = 0 at n = 4")
        ctx = mk_field(n)
        spec = kloosterman_spectrum(ctx)
        for d in range(1, n):
            if n % d:
                continue
            for a in ctx.subfield_elements(d):
                if a and int(spec.data[a]) == 0:
                    violations.append({"n": n, "d": d, "a": hex(a)})
    return {"criterion": "subfield-zeros",
            "statement": "no Kloosterman zero lies in a proper subfield",
            "violations": violations}


def _check_spectral_vs_direct(args) -> dict:
    rng = np.random.default_rng(args.seed)
    samples = args.samples or 1000
    violations = []
    for n in _span(args, 5, 10):
        ctx = mk_field(n)
        for _ in range(samples):
            L1, L2 = random_map(rng, n), random_map(rng, n)
            if perm_spectral(ctx, L1, L2).is_perm != perm_direct(ctx, L1, L2).is_perm:
                violations.append({"n": n,
                                   "l1": [hex(c) for c in L1.cols],
                                   "l2": [hex(c) for c in L2.cols]})
    return {"criterion": "spectral-vs-direct", "seed": args.seed, "samples": samples,
            "statement": "spectral and direct bijectivity verdicts agree",
            "violations": violations}


def _check_perm_search(args) -> dict:
    budget = args.budget or 100000
    violations = []
    for n in _span(args, 5, 10):
        ctx = mk_field(n)
        for mode in ("random", "structured"):
            rep = search_counterexample(ctx, mode, budget=budget, seed=args.seed)
            if rep.found is not None:
                violations.append(rep.to_json())
    return {"criterion": "perm-search", "seed": args.seed, "budget": budget,
            "statement": "no permutation L1(x^-1) + L2(x) with both maps nonzero",
            "violations": violations}


_CHECKS = {
    "mod16-criterion": _check_mod16_criterion,
    "radical": _check_radical,
    "quadric-count": _check_quadric_count,
    "mod16-sharpness": _check_mod16_sharpness,
    "zero-subspace-bound": _check_zero_subspace_bound,
    "inverse-linear-n5": _check_inverse_linear_n5,
    "subspace-sum-identity": _check_subspace_sum_identity,
    "weil-bound": _check_weil_bound,
    "subfield-zeros": _check_subfield_zeros,
    "spectral-vs-direct": _check_spectral_vs_direct,
    "perm-search": _check_perm_search,
}


def cmd_verify(args) -> int:
    names = list(_CHECKS) if args.theorem == "all" else [args.theorem]
    reports = [_CHECKS[name](args) for name in names]
    for rep in reports:
        if rep.get("inconclusive") == []:  # only truncated searches report the key
            del rep["inconclusive"]
        rep["ok"] = not rep["violations"] and "inconclusive" not in rep
    _emit(args, _json(reports if len(reports) > 1 else reports[0]))
    if any(rep["violations"] for rep in reports):
        return 1
    return 3 if any("inconclusive" in rep for rep in reports) else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="kspectra",
                                description="Kloosterman spectra, quadratic-form "
                                            "invariants and zero-subspace searches over F_2^n")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--poly", help="reduction polynomial bitmask, e.g. 0x25")
        sp.add_argument("--out", help="write output to a file instead of stdout")

    sp = sub.add_parser("spectrum", help="export a full spectrum")
    common(sp)
    sp.add_argument("--format", default="csv", choices=["csv", "json"])
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("zeros", help="list Kloosterman zeros")
    common(sp)
    sp.add_argument("--include-zero", action="store_true",
                    help="count a = 0 as a zero as well")
    sp.set_defaults(func=cmd_zeros)

    sp = sub.add_parser("zerospace", help="maximal subspace search inside a target set")
    common(sp)
    sp.add_argument("--set", default="zeros", choices=["zeros", "mod16"])
    sp.add_argument("--budget", type=_positive_int, help="node budget (non-exhaustive report)")
    sp.set_defaults(func=cmd_zerospace)

    sp = sub.add_parser("qform", help="invariants of the hyperplane quadratic form")
    common(sp)
    sp.set_defaults(func=cmd_qform)

    sp = sub.add_parser("permcheck", help="decide bijectivity of L1(x^-1) + L2(x)")
    common(sp)
    sp.add_argument("--l1", required=True, help="map as JSON {n, matrix_rows, linearized}")
    sp.add_argument("--l2", required=True)
    sp.add_argument("--method", default="both", choices=["direct", "spectral", "both"])
    sp.set_defaults(func=cmd_permcheck)

    sp = sub.add_parser("table1", help="summary tables: zero counts / max subspace dims")
    sp.add_argument("--side", required=True, choices=["left", "right"])
    sp.add_argument("--from", dest="start", type=int, required=True)
    sp.add_argument("--to", dest="end", type=int, required=True)
    sp.add_argument("--budget", type=_positive_int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_table1)

    sp = sub.add_parser("verify", help="run a verification bundle")
    sp.add_argument("--theorem", default="all", choices=["all"] + sorted(_CHECKS))
    sp.add_argument("--from", dest="start", type=int)
    sp.add_argument("--to", dest="end", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--budget", type=_positive_int)
    sp.add_argument("--samples", type=_positive_int)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an allocation past what the memory estimates allowed for
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
