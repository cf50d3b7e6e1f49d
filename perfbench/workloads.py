"""The benchmark's workloads: operations, output checks and metrics.

Each workload is a fixed list of operations run one after another by one
caller (a closed loop); a round runs the whole list once.  Every operation's
output is checked against reference.py or against properties the method must
have.  An operation fails when it raises, exits non-zero or fails a check.
Operations marked known_fault fail today because of a fault in the program;
they count in `failed` but do not make the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from types import ModuleType

import reference
from spans import PACKAGE, Tracer

FLOAT_REL_TOL = 1e-9
QUAD_REL_TOL = 1e-11
MC_SIGMAS = 5.0
_MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class Op:
    kind: str  # exact | identities | float | simulate
    metric: str  # the named end-to-end metric whose sum this operation's time adds to
    n: int = 0
    a: int = 0
    trials: int = 0
    workers: int = 1
    known_fault: bool = False

    @property
    def label(self) -> str:
        if self.kind == "identities":
            return "identities --suite all"
        text = f"{self.kind} n={self.n} a={self.a}"
        return text + (f" trials={self.trials} workers={self.workers}" if self.trials else "")


@dataclass
class OpResult:
    op: Op
    seconds: float
    problems: list[str]
    facts: dict = field(default_factory=dict)
    output: object = None
    span: int = -1

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class Round:
    results: list[OpResult]
    traced: bool
    span: int = -1

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.results)



def _run_cli(cli: ModuleType, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


class Workload:
    name = ""

    def __init__(self, seed: int, cli: ModuleType, moments: ModuleType) -> None:
        self.seed = seed
        self.cli = cli
        self.moments = moments
        self.ops = self.build_ops()

    def build_ops(self) -> list[Op]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Compute the references the checks need, before anything is timed."""

    def execute(self, op: Op, traced: bool) -> tuple[object, dict]:
        raise NotImplementedError

    def check(self, op: Op, output: object, facts: dict) -> list[str]:
        raise NotImplementedError

    def cross_check(self, results: list[OpResult]) -> None:
        """Checks that compare the operations of one round that passed check()."""

    def run_round(self, tracer: Tracer | None) -> Round:
        _clear_caches()
        results = []
        outer = tracer.span("round") if tracer else contextlib.nullcontext(-1)
        with outer as round_span:
            for op in self.ops:
                inner = tracer.span(f"op {op.label}") if tracer else contextlib.nullcontext(-1)
                with inner as span:
                    start = perf_counter()
                    try:
                        output, facts = self.execute(op, tracer is not None)
                        problems = []
                    except Exception as exc:  # a refusal or crash fails the operation
                        output, facts, problems = None, {}, [f"raised {exc!r}"[:300]]
                    seconds = perf_counter() - start
                results.append(OpResult(op, seconds, problems, facts, output, span))
        for r in results:
            if not r.problems:
                try:
                    r.problems = self.check(r.op, r.output, r.facts)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    r.problems = [f"unreadable output: {exc!r}"[:300]]
        self.cross_check(results)
        for r in results:
            r.output = None
        return Round(results, tracer is not None, round_span)


def _clear_caches() -> None:
    """Empty the package's memo caches so that every round starts cold."""
    for name, module in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


# --- exact-sweep --------------------------------------------------------------


class ExactSweep(Workload):
    """Exact per-sensor tables for n in 100..400, a ascending at each n, then
    the identity suite.  Inputs do not depend on the seed."""

    name = "exact-sweep"
    GRID_N = (100, 200, 300, 400)
    GRID_A = (1, 2, 3, 5, 9)

    def build_ops(self) -> list[Op]:
        ops = [Op("exact", "exact_s", n=n, a=a) for n in self.GRID_N for a in self.GRID_A]
        return ops + [Op("identities", "identities_s")]

    def prepare(self) -> None:
        odd = [a for a in self.GRID_A if a % 2]
        self.quad = {n: reference.quadrature_totals(n, odd) for n in self.GRID_N}
        self.signed = {(n, a): reference.signed_sensor_moments(n, a)
                       for n in self.GRID_N for a in self.GRID_A}
        self.even_totals = {(n, a): reference.signed_total(n, a)
                            for n in self.GRID_N for a in self.GRID_A if a % 2 == 0}

    def execute(self, op: Op, traced: bool) -> tuple[object, dict]:
        if op.kind == "identities":
            return _run_cli(self.cli, ["identities", "--suite", "all", "--no-timestamp"]), {}
        argv = ["exact", "--n", str(op.n), "--a", str(op.a), "--per-sensor", "--no-timestamp"]
        return _run_cli(self.cli, argv), {}

    def check(self, op: Op, output: object, facts: dict) -> list[str]:
        code, text = output
        if code != 0:
            return [f"exit code {code}"]
        rows = json.loads(text)["rows"]
        if op.kind == "identities":
            return [f"identity {r['name']} failed" for r in rows if r["passed"] != "true"]
        return self._check_table(op.n, op.a, rows)

    def _check_table(self, n: int, a: int, rows: list[dict]) -> list[str]:
        problems = []
        if len(rows) != n + 1 or rows[-1]["i"] != "total":
            return [f"expected {n} sensor rows and a total row, got {len(rows)} rows"]
        sensors = rows[:-1]
        e = [Fraction(r["e_total"]) for r in sensors]
        s = [Fraction(r["e_signed_part"]) for r in sensors]
        f = [Fraction(r["e_folded_part"]) for r in sensors]
        for k, r in enumerate(sensors):
            i = k + 1
            if r["i"] != str(i) or Fraction(r["t"]) != Fraction(2 * i - 1, 2 * n):
                problems.append(f"row {i}: wrong index or anchor")
            if e[k] != s[k] + f[k]:
                problems.append(f"row {i}: e_total != e_signed + e_folded")
            if e[k] <= 0:
                problems.append(f"row {i}: e_total <= 0")
            if e[k] != e[n - 1 - k]:
                problems.append(f"row {i}: E_i != E_(n+1-i)")
            if float(r["e_total_approx"]) != float(e[k]):
                problems.append(f"row {i}: decimal column disagrees with p/q")
        if s != self.signed[(n, a)]:
            problems.append("signed parts differ from the exact closed form")
        total = Fraction(rows[-1]["e_total"])
        if total != sum(e):
            problems.append("total row != sum of the sensor rows")
        if a % 2 == 0:
            if any(f):
                problems.append("even order with a non-zero folded part")
            if total != self.even_totals[(n, a)]:
                problems.append("total differs from the exact closed form")
        else:
            if sum(s) != 0:
                problems.append("odd-order signed parts do not sum to 0")
            err = _rel(float(total), self.quad[n][a])
            if err > QUAD_REL_TOL:
                problems.append(f"total off quadrature by {err:.3e} relative")
        return problems


# --- float-sweep --------------------------------------------------------------


class FloatSweep(Workload):
    """total_moment_float on both sides of the series cutoff.  Inputs do not
    depend on the seed."""

    name = "float-sweep"
    SERIES_N = 2000
    # Cancellation in the alternating expansion grows like n^(a/2) * 1e-16:
    # at n = 10^5 the totals for a >= 3 miss 1e-9 (a = 7 and 9 come out negative).
    KNOWN_FAULTS = {(10**5, a) for a in range(3, 10)}

    def build_ops(self) -> list[Op]:
        cases = ([(self.SERIES_N, a) for a in range(1, 10)]
                 + [(10**5, a) for a in range(1, 10)] + [(10**6, 1), (10**6, 2)])
        return [Op("float", "float_series_s" if n <= self.SERIES_N else "float_large_s",
                   n=n, a=a, known_fault=(n, a) in self.KNOWN_FAULTS) for n, a in cases]

    def prepare(self) -> None:
        cache = reference.load_cache()
        self.refs = {(op.n, op.a): reference.total(op.n, op.a, cache) for op in self.ops}

    def execute(self, op: Op, traced: bool) -> tuple[object, dict]:
        query = self.moments.MomentQuery(n=op.n, a=op.a)
        if not traced:
            return self.moments.total_moment_float(query).total, {}
        tracemalloc.start()
        try:
            value = self.moments.total_moment_float(query).total
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return value, {"peak_mb": peak / _MB}

    def check(self, op: Op, output: object, facts: dict) -> list[str]:
        err = _rel(float(output), self.refs[(op.n, op.a)])
        facts["rel_err"] = err
        return [f"relative error {err:.3e} > {FLOAT_REL_TOL:g}"] if not err <= FLOAT_REL_TOL else []


# --- simulate -----------------------------------------------------------------


class Simulate(Workload):
    """anchor-moments simulate with the benchmark seed as the Monte Carlo seed."""

    name = "simulate"

    def build_ops(self) -> list[Op]:
        return [
            Op("simulate", "simulate_s", n=50, a=1, trials=10**6, workers=1),
            Op("simulate", "simulate_pool_s", n=50, a=1, trials=10**6, workers=2),
            Op("simulate", "simulate_s", n=300, a=3, trials=10**5, workers=1),
            Op("simulate", "simulate_s", n=2500, a=2, trials=2 * 10**4, workers=1),
        ]

    def prepare(self) -> None:
        self.refs = {(op.n, op.a): reference.total(op.n, op.a) for op in self.ops}

    def execute(self, op: Op, traced: bool) -> tuple[object, dict]:
        argv = ["simulate", "--n", str(op.n), "--a", str(op.a), "--trials", str(op.trials),
                "--seed", str(self.seed), "--workers", str(op.workers), "--no-timestamp"]
        return _run_cli(self.cli, argv), {}

    def check(self, op: Op, output: object, facts: dict) -> list[str]:
        code, text = output
        if code != 0:
            return [f"exit code {code}"]
        row = json.loads(text)["rows"][0]
        ref = self.refs[(op.n, op.a)]
        problems = []
        z = (float(row["mean"]) - ref) / float(row["std_error"])
        if not abs(z) <= MC_SIGMAS:
            problems.append(f"mean {z:+.2f} standard errors from the reference")
        if "exact" in row and _rel(float(Fraction(row["exact"])), ref) > QUAD_REL_TOL:
            problems.append("exact column disagrees with the reference")
        if row["trials"] != str(op.trials) or row["seed"] != str(self.seed):
            problems.append("trials or seed column does not echo the input")
        return problems

    def cross_check(self, results: list[OpResult]) -> None:
        by_case = {}
        for r in results:
            if not r.problems:
                rows = json.loads(r.output[1])["rows"]
                by_case.setdefault((r.op.n, r.op.a, r.op.trials), []).append((r, rows))
        for group in by_case.values():
            for r, rows in group[1:]:
                if rows != group[0][1]:
                    r.problems.append(f"rows differ between workers {group[0][0].op.workers} "
                                      f"and {r.op.workers}")


WORKLOADS = {w.name: w for w in (ExactSweep, FloatSweep, Simulate)}


# --- per-layer metrics from a traced round ------------------------------------


def layer_metrics(tracer: Tracer, rnd: Round, own: list[float],
                  identities: ModuleType) -> dict[str, float]:
    """Per-layer metrics of one traced round; `own` holds every span's self time."""
    spans = tracer.spans
    op_at = {r.span: r.op for r in rnd.results}
    end = next((k for k in range(rnd.span + 1, len(spans)) if spans[k][3] == -1), len(spans))
    op_of: dict[int, Op | None] = {}
    m: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0.0) + value

    suite_of = {f"identities.{check.__name__}": suite
                for suite, checks in getattr(identities, "SUITES", {}).items() for check in checks}
    suite_of["identities.check_diagonal_beta_identities"] = "technical2b"
    suite_of["identities.run_suite"] = "all"
    pair = {}
    for k in range(rnd.span + 1, end):
        name, start, stop, parent = spans[k]
        op = op_at.get(k) or op_of.get(parent)
        op_of[k] = op
        dur = stop - start
        parent_name = spans[parent][0] if parent >= 0 else ""
        if name == "cli.main" and op.kind in ("exact", "simulate"):
            add(f"cli.{op.kind}_self_s", own[k])
        elif name == "moments.total_moment_exact":
            add("moments.total_moment_exact_self_s", own[k])
            if parent_name == "cli.main" and op.kind == "simulate":
                add("cli.simulate_exact_ref_s", dur)
                add("cli.simulate_exact_ref_calls", 1)
        elif name == "moments.per_sensor_moment_exact":
            add("moments.per_sensor_moment_exact_calls", 1)
            add("moments.per_sensor_moment_exact_self_s", own[k])
            if op.a % 2:
                add("moments.ibeta_requests", op.a + 1)
        elif name == "moments.total_moment_float":
            add("moments.float_series_s" if op.n <= FloatSweep.SERIES_N
                else "moments.float_expansion_s", dur)
        elif name == "special_functions.incomplete_beta_regularized_exact":
            add("special_functions.incomplete_beta_regularized_exact_calls", 1)
            add("special_functions.incomplete_beta_regularized_exact_s", dur)
            if parent_name == "moments.per_sensor_moment_exact":
                add("moments.ibeta_evals", 1)
        elif name == "special_functions.beta_exact":
            add("special_functions.beta_exact_calls", 1)
            add("special_functions.beta_exact_s", dur)
        elif name == "simulation.estimate":
            if op.workers == 1:
                add("simulation.estimate_s", dur)
                add("simulation.estimate_trials", op.trials)
            else:
                add("simulation.estimate_pool_s", dur)
            pair.setdefault((op.n, op.a, op.trials), {})[op.workers] = dur
        if name in suite_of:
            add(f"identities.suite.{suite_of[name]}_s", dur)
    for kind in ("series", "expansion"):
        peaks = [r.facts.get("peak_mb", 0.0) for r in rnd.results
                 if r.op.kind == "float" and (r.op.n <= FloatSweep.SERIES_N) == (kind == "series")]
        errs = [r.facts["rel_err"] for r in rnd.results if "rel_err" in r.facts
                and (r.op.n <= FloatSweep.SERIES_N) == (kind == "series")]
        m[f"moments.float_{kind}_peak_mb"] = max(peaks, default=0.0)
        m[f"moments.float_{kind}_rel_err_max"] = max(errs, default=0.0)
    if m.get("moments.ibeta_requests"):
        m["moments.ibeta_evals_per_request"] = (m.get("moments.ibeta_evals", 0.0)
                                                / m["moments.ibeta_requests"])
    if m.get("simulation.estimate_s"):
        m["simulation.trials_per_s"] = m.pop("simulation.estimate_trials") / m["simulation.estimate_s"]
    m.pop("simulation.estimate_trials", None)
    for times in pair.values():
        if 1 in times and 2 in times:
            m["simulation.pool_pair_w1_s"] = times[1]
            m["simulation.pool_speedup"] = times[1] / times[2]
    return {key: m.get(key, 0.0) for key in per_layer_names(identities)}


def per_layer_names(identities: ModuleType) -> list[str]:
    names = [
        "cli.exact_self_s", "cli.simulate_self_s", "cli.simulate_exact_ref_s",
        "cli.simulate_exact_ref_calls",
        "moments.total_moment_exact_self_s", "moments.per_sensor_moment_exact_calls",
        "moments.per_sensor_moment_exact_self_s", "moments.ibeta_evals",
        "moments.ibeta_requests", "moments.ibeta_evals_per_request",
        "moments.float_series_s", "moments.float_expansion_s",
        "moments.float_series_peak_mb", "moments.float_expansion_peak_mb",
        "moments.float_series_rel_err_max", "moments.float_expansion_rel_err_max",
        "special_functions.incomplete_beta_regularized_exact_calls",
        "special_functions.incomplete_beta_regularized_exact_s",
        "special_functions.beta_exact_calls", "special_functions.beta_exact_s",
        "simulation.estimate_s", "simulation.trials_per_s", "simulation.estimate_pool_s",
        "simulation.pool_pair_w1_s", "simulation.pool_speedup",
    ]
    return names + [f"identities.suite.{s}_s" for s in identities.suite_names()]


def best_of_rounds(rounds: list[Round]) -> dict[str, float]:
    """Each operation's fastest time over the rounds, summed per named metric.

    Interference from other processes only ever adds time, and on a shared
    machine it comes in bursts of seconds, so the fastest of repetitions
    spread over the run is far steadier than any one of them.
    """
    sums: dict[str, float] = {}
    for k, res in enumerate(rounds[0].results):
        best = min(r.results[k].seconds for r in rounds)
        sums[res.op.metric] = sums.get(res.op.metric, 0.0) + best
    return sums


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(d[key] for d in per_round) for key in per_round[0]}
