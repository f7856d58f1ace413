"""The benchmark's three workloads: inputs made from the seed, the timed job,
and the checks that every result is exact.

A workload is built in two steps that together form the set-up: import the
program (`import_program`), then make the inputs (the workload's
constructor).  `job()` runs the program once over all inputs and times it;
`check(op)` then verifies one operation's output with plain-integer code
from `intmat`, outside the timed section.  Nothing here imports `tests/` or
`boundgen.checks`, so an edit to the program cannot change a workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import intmat as im


@dataclass
class Op:
    """One call into the program: its latency and its output, or the error it raised."""

    kind: str
    seconds: float
    output: object = None
    error: str = ""


@dataclass
class Job:
    seconds: float
    ops: list[Op]


def import_program() -> SimpleNamespace:
    """Import the boundgen modules the workloads call; timed as part of set-up."""
    from boundgen import cli, factorize, ideals, matrices, rings, serialize, words

    return SimpleNamespace(
        cli=cli,
        factorize=factorize,
        ideals=ideals,
        matrices=matrices,
        rings=rings,
        serialize=serialize,
        words=words,
    )


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def sl_order(n: int, l: int) -> int:
    """|SL(n, Z/l)| in closed form: multiplicative over prime powers p^e, each
    contributing p^{(e-1)(n^2-1)} * p^{n(n-1)/2} * prod_{k=2..n} (p^k - 1)."""
    out = 1
    for p, e in _prime_factors(l).items():
        out *= p ** ((e - 1) * (n * n - 1)) * p ** (n * (n - 1) // 2)
        for k in range(2, n + 1):
            out *= p ** k - 1
    return out


def _run_cli(cli, argv: list[str]) -> Op:
    """One in-process CLI call; its output is (exit code, report text)."""
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.run(argv)
    except Exception as exc:  # any escape is a failed operation, counted by the caller
        return Op(argv[0], perf_counter() - t0, error=repr(exc))
    return Op(argv[0], perf_counter() - t0, output=(rc, buf.getvalue()))


def _cli_report(op: Op, verb: str) -> tuple[dict | None, list[str]]:
    """The parsed report of a CLI op, or the reasons it cannot be used."""
    if op.error:
        return None, [f"{verb} raised {op.error}"]
    rc, text = op.output
    if rc != 0:
        return None, [f"{verb} exited with {rc}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"{verb} printed no JSON report: {exc}"]
    if report.get("verb") != verb:
        return None, [f"report verb {report.get('verb')!r} != {verb!r}"]
    return report, []


def _expect(failures: list[str], what: str, got, want) -> None:
    if got != want:
        failures.append(f"{what}: got {got!r}, expected {want!r}")


class _CliWorkload:
    """A workload made of fixed in-process CLI calls."""

    argvs: list[list[str]]

    def __init__(self, prog: SimpleNamespace):
        self.prog = prog

    def job(self) -> Job:
        t0 = perf_counter()
        ops = [_run_cli(self.prog.cli, argv) for argv in self.argvs]
        return Job(perf_counter() - t0, ops)

    def output_bytes(self, op: Op) -> int:
        return len(op.output[1]) if op.output else 0

    def letters(self, op: Op) -> int:
        return 0

    def digests(self, job: Job) -> list[str]:
        """SHA-256 of each report, for spotting a change in report bytes."""
        return [hashlib.sha256(op.output[1].encode()).hexdigest() for op in job.ops if op.output]


class BallLarge(_CliWorkload):
    """`boundgen ball` on SL(3, Z/6) with a seeded conjugate of the criterion-6 pair.

    The seed draws h in SL(3, Z/6); the generators h E_13(3) h^-1 and
    h E_13(2) h^-1 have the same conjugacy-class closure for every h, so the
    alphabet, the growth and the work do not depend on the seed.
    """

    name = "ball_large"
    L = 6
    N = 3
    GROWTH = [1, 126, 4670, 65661, 360558, 787536, 943488]
    DIAMETER = 6
    ALPHABET = 125

    def __init__(self, prog: SimpleNamespace, seed: int, workdir: Path):
        super().__init__(prog)
        q, n = self.L, self.N
        h, h_inv = im.random_sl(im.Stream(seed), n, q, k=24)
        gens = [
            im.mul(im.mul(h, im.elementary(1, 3, x, n, q), q), h_inv, q) for x in (3, 2)
        ]
        path = workdir / f"ball_large-gens-{seed}.json"
        path.write_text(json.dumps({"gens": [im.matrix_json(g, q) for g in gens]}))
        self.argvs = [["ball", "--ring", f"Zmod:{q}", "--n", str(n), "--gens", str(path)]]

    def check(self, op: Op, index: int) -> list[str]:
        report, failures = _cli_report(op, "ball")
        if report is None:
            return failures
        order = sl_order(self.N, self.L)
        _expect(failures, "order", report.get("order"), order)
        _expect(failures, "reached", report.get("reached"), order)
        _expect(failures, "normally_generates", report.get("normally_generates"), True)
        _expect(failures, "diameter", report.get("diameter"), self.DIAMETER)
        _expect(failures, "alphabet", report.get("alphabet"), self.ALPHABET)
        _expect(failures, "growth", report.get("growth"), self.GROWTH)
        return failures

    @staticmethod
    def growth(op: Op) -> list[int]:
        """The report's cumulative ball sizes per BFS level."""
        try:
            return list(json.loads(op.output[1])["growth"])
        except (TypeError, ValueError, KeyError):
            return []


class SmallGroups(_CliWorkload):
    """`delta --k 1` on SL(3, F_3) and SL(3, F_2), then `check-inequalities`.

    The groups are fixed, so the seed is not used: every seed runs the same
    calls.  Both Delta_1 values are 3; the SL(3, F_2) value was confirmed by
    an independent brute-force search over its 168 elements.
    """

    name = "small_groups"
    DELTAS = {"Fp:3": 3, "Fp:2": 3}

    def __init__(self, prog: SimpleNamespace, seed: int, workdir: Path):
        super().__init__(prog)
        self.argvs = [
            ["delta", "--ring", ring, "--n", "3", "--k", "1"] for ring in self.DELTAS
        ] + [["check-inequalities"]]

    def check(self, op: Op, index: int) -> list[str]:
        if op.kind == "delta":
            report, failures = _cli_report(op, "delta")
            if report is None:
                return failures
            p = int(report.get("ring", {}).get("p", 0))
            _expect(failures, "order", report.get("order"), sl_order(3, p) if p else None)
            _expect(failures, "attained", report.get("attained"), True)
            _expect(failures, f"Delta_1 over F{p}", report.get("delta"), self.DELTAS.get(f"Fp:{p}"))
            return failures
        report, failures = _cli_report(op, "check-inequalities")
        if report is None:
            return failures
        checks = report.get("checks") or []
        _expect(failures, "all_hold", report.get("all_hold"), True)
        if not checks:
            failures.append("inequality suite reported no checks")
        failures += [f"violated: {c.get('name')}" for c in checks if c.get("holds") is not True]
        return failures


class Certify:
    """Normal-generation certificates over Z and bounded factorizations over Z/l.

    Library calls, not `cli.run`: argparse alone costs about 2 ms per call,
    a third of this workload's time, and no in-process user pays it.  Every
    certificate is serialised with `certificate_to_json` and replayed by
    `serialize.replay_certificate` inside the timed job, as `normgen` then
    `verify-word` would.
    """

    name = "certify"
    PAIRS = 100
    FACTOR_SETS = ((3, 12, 6, 200), (4, 4, 8, 200))  # (n, l, elementary factors, count)
    ORACLE_PRIMES = [p for p in range(2, 101) if all(p % d for d in range(2, p))]

    def __init__(self, prog: SimpleNamespace, seed: int, workdir: Path):
        self.prog = prog
        rng = im.Stream(seed)
        self.pairs: list[tuple[tuple, tuple]] = []
        for _ in range(self.PAIRS):
            a = im.random_sl(rng, 3, None, k=3)[0]
            b = im.random_sl(rng, 3, None, k=3)[0]
            while b == a:
                b = im.random_sl(rng, 3, None, k=3)[0]
            self.pairs.append((a, b))
        self.factor_inputs: list[tuple[int, tuple]] = [
            (l, im.random_sl(rng, n, l, k=k)[0])
            for n, l, k, count in self.FACTOR_SETS
            for _ in range(count)
        ]
        rings, matrices, words = prog.rings, prog.matrices, prog.words
        z = rings.RingSpec.integers()
        self.gensets = [
            words.GenSet((matrices.MatrixSL(3, z, a), matrices.MatrixSL(3, z, b)))
            for a, b in self.pairs
        ]
        ring_of = {l: rings.RingSpec.residue(l) for _, l, _, _ in self.FACTOR_SETS}
        self.factor_mats = [
            matrices.MatrixSL(len(a), ring_of[l], a) for l, a in self.factor_inputs
        ]
        self.e13 = matrices.elementary(1, 3, 1, 3, z)

    def inputs_bytes(self) -> bytes:
        """Canonical bytes of every input, for the determinism self-test."""
        return json.dumps({"pairs": self.pairs, "factor": self.factor_inputs}).encode()

    def job(self) -> Job:
        decide = self.prog.ideals.decide_normal_generation
        factor = self.prog.factorize.factor_semilocal
        to_json = self.prog.serialize.certificate_to_json
        replay = self.prog.serialize.replay_certificate
        ops: list[Op] = []
        t_job = perf_counter()
        for gens in self.gensets:
            t0 = perf_counter()
            try:
                d = decide(gens)
                cert = to_json(d.certificate, gens, self.e13) if d.generates else None
                op = Op("normgen", perf_counter() - t0, (d.generates, d.common_prime, d.all_scalar, cert))
                if cert is not None:
                    replay(cert)
            except Exception as exc:  # counted as a failed operation
                op = Op("normgen", perf_counter() - t0, error=repr(exc))
            ops.append(op)
        for mat in self.factor_mats:
            t0 = perf_counter()
            try:
                fact = factor(mat)
                cert = to_json(fact.word, fact.genset, mat)
                op = Op("factor", perf_counter() - t0, cert)
                replay(cert)
            except Exception as exc:  # counted as a failed operation
                op = Op("factor", perf_counter() - t0, error=repr(exc))
            ops.append(op)
        return Job(perf_counter() - t_job, ops)

    def check(self, op: Op, index: int) -> list[str]:
        """Verify ops[index] of a job against its input."""
        if op.error:
            return [f"{op.kind} #{index} raised {op.error}"]
        if op.kind == "normgen":
            return self._check_normgen(op, *self.pairs[index])
        l, a = self.factor_inputs[index - self.PAIRS]
        return self._check_cert(op.output, a, l, [a], 3 * (len(a) - 1), f"factor #{index}")

    def _check_normgen(self, op: Op, a: tuple, b: tuple) -> list[str]:
        generates, common_prime, all_scalar, cert = op.output
        common = [p for p in self.ORACLE_PRIMES if im.is_scalar_mod(a, p) and im.is_scalar_mod(b, p)]
        if not generates:
            if common_prime in common:
                return []
            if all_scalar and im.is_scalar_mod(a, None) and im.is_scalar_mod(b, None):
                return []
            return [f"NO with common prime {common_prime}, oracle primes <= 100: {common}"]
        failures = [f"YES but {p} is a common prime"] if common else []
        e13 = im.elementary(1, 3, 1, 3, None)
        k, n = 2, 3
        return failures + self._check_cert(cert, e13, None, [a, b], 4 * k * (n + 1), "normgen")

    @staticmethod
    def _check_cert(cert: dict, target: tuple, q, gens: list, max_len: int, what: str) -> list[str]:
        try:
            product, claimed, length = im.replay_certificate(cert, q)
            cert_gens = [im.matrix_from_json(m, q) for m in cert["gens"]]
        except (KeyError, TypeError, ValueError) as exc:
            return [f"{what}: malformed certificate: {exc!r}"]
        failures = []
        if claimed != target:
            failures.append(f"{what}: claims the wrong target")
        if product != target:
            failures.append(f"{what}: letters do not multiply to the target")
        if length > max_len:
            failures.append(f"{what}: {length} letters > bound {max_len}")
        if q is None and cert_gens != gens:
            failures.append(f"{what}: certificate is not over the input generators")
        if q is not None and not all(im.as_elementary(g, q) for g in cert_gens):
            failures.append(f"{what}: a generator is not elementary")
        return failures

    @staticmethod
    def _cert(op: Op) -> dict | None:
        """The certificate an op emitted; None for a NO answer or an error."""
        cert = op.output[3] if op.kind == "normgen" and op.output else op.output
        return cert if isinstance(cert, dict) else None

    def letters(self, op: Op) -> int:
        cert = self._cert(op)
        return len(cert["letters"]) if cert else 0

    def _cert_text(self, op: Op) -> str:
        cert = self._cert(op)
        return json.dumps(cert, indent=2, sort_keys=True) if cert else ""

    def output_bytes(self, op: Op) -> int:
        return len(self._cert_text(op))

    def digests(self, job: Job) -> list[str]:
        """One SHA-256 over every certificate of the job, in input order."""
        return [hashlib.sha256("".join(self._cert_text(op) for op in job.ops).encode()).hexdigest()]


WORKLOADS = {w.name: w for w in (BallLarge, SmallGroups, Certify)}


def check_job(workload, job: Job) -> list[str]:
    """Failure messages of a job, one entry per failed operation."""
    out = []
    for index, op in enumerate(job.ops):
        failures = workload.check(op, index)
        if failures:
            out.append("; ".join(failures))
    return out

