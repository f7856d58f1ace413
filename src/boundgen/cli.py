"""Command-line interface.

One binary, subcommand verbs, JSON reports on stdout (CSV for growth
tables).  Exit codes: 0 success, 1 usage or input errors, 2 a certificate
that fails to replay, a violated inequality or a failed internal self-check.
Reports embed the toolkit version, the ring, the seed of any randomized
suite and the bound formulas used, so a report is a reproducibility
artifact on its own.

All verbs are deterministic for a fixed input and seed: the same command
prints the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .ballsearch import class_delta, class_product
from .checks import run_identity_suites
from .errors import BoundgenError, MalformedInput, SelfCheckFailed, VerificationFailed
from .factorize import factor_euclid, factor_semilocal
from .hessenberg import to_hessenberg
from .ideals import decide_normal_generation, pi_support
from .inequalities import run_small_suite
from .matrices import elementary
from .serialize import (
    certificate_to_json,
    genset_from_json,
    matrix_from_json,
    matrix_to_json,
    parse_ring,
    replay_certificate,
    ring_to_json,
)
from .witness import build_lower_witness, class_size_lower, delta_upper


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise MalformedInput(f"{path}: JSON nested too deeply") from None


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _header(args, **extra) -> dict:
    head = {
        "toolkit": f"boundgen {__version__}",
        "verb": args.verb,
    }
    if getattr(args, "seed", None) is not None:
        head["seed"] = args.seed
    head.update(extra)
    return head


def cmd_pia(args) -> int:
    mat = matrix_from_json(_load(args.matrix))
    support = pi_support(mat)
    payload = "all" if support.is_all else sorted(str(p) for p in support.finite)
    _emit(_header(args, ring=ring_to_json(mat.ring), n=mat.n, support=payload), args)
    return 0


def cmd_normgen(args) -> int:
    gens = genset_from_json(_load(args.gens))
    decision = decide_normal_generation(gens)
    # SL(n, Z) = E(n, Z): the verdict holds for the whole group
    report = _header(
        args,
        ring=ring_to_json(gens.ring),
        n=gens.n,
        decision="yes" if decision.generates else "no",
        assume_el_generates=True,
    )
    if decision.generates:
        target = elementary(1, gens.n, 1, gens.n, gens.ring)
        report["certificate"] = certificate_to_json(decision.certificate, gens, target)
        report["length"] = decision.certificate_length
        if args.cert_out:
            with open(args.cert_out, "w", encoding="utf-8") as fh:
                json.dump(report["certificate"], fh, indent=2, sort_keys=True)
    else:
        report["common_prime"] = str(decision.common_prime)
        if decision.all_scalar:
            report["note"] = "all generators scalar; any prime is an obstruction"
    _emit(report, args)
    return 0


def cmd_factor(args) -> int:
    mat = matrix_from_json(_load(args.matrix))
    if args.ring and parse_ring(args.ring) != mat.ring:
        print("error: --ring disagrees with the matrix file", file=sys.stderr)
        return 1
    if mat.ring.is_integers:
        if args.bounded:
            print("error: no bounded factorization over Z", file=sys.stderr)
            return 1
        fact = factor_euclid(mat)
    else:
        fact = factor_semilocal(mat)
    report = _header(
        args,
        ring=ring_to_json(mat.ring),
        n=mat.n,
        length=len(fact.word),
        bound="3(n-1)" if fact.bound_claim is not None else None,
        bound_value=fact.bound_claim,
        certificate=certificate_to_json(fact.word, fact.genset, mat),
    )
    _emit(report, args)
    return 0


def cmd_hessenberg(args) -> int:
    mat = matrix_from_json(_load(args.matrix))
    cert = to_hessenberg(mat)
    _emit(
        _header(
            args,
            ring=ring_to_json(mat.ring),
            n=mat.n,
            H=matrix_to_json(cert.hessenberg),
            P=matrix_to_json(cert.transform),
            verified=True,
        ),
        args,
    )
    return 0


def cmd_ball(args) -> int:
    ring = parse_ring(args.ring)
    gens = list(genset_from_json(_load(args.gens)).elements)
    order, alphabet, growth = class_product(ring, args.n, args.psl).ball(gens)
    generates = growth[-1] == order
    report = _header(
        args,
        ring=ring_to_json(ring),
        n=args.n,
        psl=args.psl,
        order=order,
        alphabet=alphabet,
        reached=growth[-1],
        normally_generates=generates,
        diameter=len(growth) - 1 if generates else None,
        growth=growth,
    )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("radius,ball_size\n")
            for d, size in enumerate(growth):
                fh.write(f"{d},{size}\n")
    _emit(report, args)
    return 0


def cmd_delta(args) -> int:
    ring = parse_ring(args.ring)
    cp = class_product(ring, args.n, args.psl)
    rpt = class_delta(cp, args.k)
    report = _header(
        args,
        ring=ring_to_json(ring),
        n=args.n,
        psl=args.psl,
        k=args.k,
        order=cp.order,
        attained=rpt.attained,
        delta=rpt.value if rpt.attained else "unattained",
        witness=[matrix_to_json(m) for m in rpt.witness],
        simple_shortcut=rpt.simple_shortcut,
        checked_sets=rpt.checked_sets,
    )
    _emit(report, args)
    return 0


def cmd_witness_lower(args) -> int:
    primes = [int(p) for p in args.primes.split(",")]
    w = build_lower_witness(args.n, primes)
    target = elementary(1, args.n, 1, args.n, w.genset.ring)
    report = _header(
        args,
        n=args.n,
        primes=[str(p) for p in w.primes],
        generators=[matrix_to_json(m) for m in w.genset.elements],
        coefficients=[str(c) for c in w.coefficients],
        crt_word_length=w.crt_word_length,
        crt_certificate=certificate_to_json(w.crt_word, w.genset, target),
        obstruction_table=[list(row) for row in w.obstruction],
        norm_lower_bound=w.k,
    )
    _emit(report, args)
    return 0


def cmd_bound(args) -> int:
    res = delta_upper(args.n, args.k, args.regime, c_n=args.c_n, d=args.d, l=args.l)
    _emit(
        _header(args, n=args.n, k=args.k, regime=res.regime, value=res.value,
                formula=res.formula),
        args,
    )
    return 0


def cmd_class_bound(args) -> int:
    generic, symmetric = class_size_lower(args.order, args.delta)
    report = _header(
        args,
        order=args.order,
        delta=args.delta,
        generic_threshold_log2=generic.log2_threshold,
        symmetric_threshold_log2=symmetric.log2_threshold,
        formula="log2|S| > log2|G|/delta - 2 (symmetric: - 1)",
    )
    if args.class_size is not None:
        report["class_size"] = args.class_size
        report["generic_holds"] = generic.holds_for(args.class_size)
        report["symmetric_holds"] = symmetric.holds_for(args.class_size)
    _emit(report, args)
    return 0


def cmd_verify_word(args) -> int:
    data = _load(args.certificate)
    try:
        replay_certificate(data)
    except VerificationFailed as exc:
        _emit(_header(args, verified=False, step=exc.step, reason=str(exc)), args)
        return 2
    _emit(_header(args, verified=True), args)
    return 0


def cmd_check_identities(args) -> int:
    reports = run_identity_suites(args.seed, trials=args.trials)
    _emit(_header(args, suites=reports), args)
    return 0


def cmd_check_inequalities(args) -> int:
    rows = run_small_suite()
    payload = [
        {
            "name": r.name,
            "lhs": str(r.lhs),
            "relation": r.relation,
            "rhs": str(r.rhs),
            "holds": r.holds,
        }
        for r in rows
    ]
    all_hold = all(r.holds for r in rows)
    _emit(_header(args, checks=payload, all_hold=all_hold), args)
    return 0 if all_hold else 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boundgen",
        description="exact word-norm certificates and ball search in SL(n, R)",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("pia", help="prime support of a matrix")
    p.add_argument("matrix")
    p.add_argument("--out")
    p.set_defaults(func=cmd_pia)

    p = sub.add_parser("normgen", help="decide normal generation of a set")
    p.add_argument("gens")
    p.add_argument("--cert-out")
    p.add_argument("--out")
    p.set_defaults(func=cmd_normgen)

    p = sub.add_parser("factor", help="factor into conjugated elementary matrices")
    p.add_argument("matrix")
    p.add_argument("--ring", help="optional check against the matrix file's ring")
    p.add_argument("--bounded", action="store_true",
                   help="require the 3(n-1) bound (finite rings only)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("hessenberg", help="conjugate to upper Hessenberg form")
    p.add_argument("matrix")
    p.add_argument("--out")
    p.set_defaults(func=cmd_hessenberg)

    p = sub.add_parser(
        "ball",
        help="exact balls in a finite group by a class search; composite l runs "
        "through its prime-power factors, so DENSE_KEY_LIMIT applies per factor",
    )
    p.add_argument("--ring", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--psl", action="store_true")
    p.add_argument("--csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser(
        "delta",
        help="exhaustive delta_k of a finite group; composite l runs through its "
        "prime-power factors, so DENSE_KEY_LIMIT applies per factor, and a "
        "witness is the CRT of its factor class reps",
    )
    p.add_argument("--ring", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--psl", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("witness-lower", help="k-generator lower-bound witness")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--primes", required=True, help="comma-separated distinct primes")
    p.add_argument("--out")
    p.set_defaults(func=cmd_witness_lower)

    p = sub.add_parser("bound", help="closed-form diameter bounds")
    p.add_argument("--regime", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--c-n", type=int, dest="c_n")
    p.add_argument("--d", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("class-bound", help="conjugacy-class size thresholds")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--class-size", type=int, dest="class_size")
    p.add_argument("--out")
    p.set_defaults(func=cmd_class_bound)

    p = sub.add_parser("verify-word", help="replay a word certificate")
    p.add_argument("certificate")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_word)

    p = sub.add_parser("check-identities", help="randomized identity suites")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_identities)

    p = sub.add_parser("check-inequalities", help="finite-group inequality suite")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_inequalities)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except VerificationFailed as exc:
        print(f"verification failed: {exc} (step {exc.step})", file=sys.stderr)
        return 2
    except SelfCheckFailed as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 2
    except (BoundgenError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
