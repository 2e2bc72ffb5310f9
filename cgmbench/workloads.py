"""The three workloads: the operations one round runs, and their checks.

A round is a fixed list of calls into cgmlab's public functions and is the
unit wall_s and cpu_s are measured on.  ``run_round`` holds only those
calls.  ``check_round`` runs after the round's clock has stopped: it checks
sampled outputs against the references in ``reference.py`` and, for layers
reached only inside another cgmlab function, makes one extra direct call of
the layer's public function on the same inputs so a traced run can time it.
``finish`` holds the checks pooled over the whole run, plus the layer
probes a traced run needs once.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil

import numpy as np
from scipy import stats as sps

from cgmlab import busemann, cli, lpp, multiclass, queueing, rng, stats, verification
from cgmlab.multiclass import MultiConfig
from cgmlab.queueing import BoundaryPolicy
from cgmlab.rng import RngSpec, SeqWindow

import reference
from tracing import duration

# cgmlab's default master seed; every fast-suite criterion passes at it on
# the first ladder seed, so a pass always does the same work.
PINNED_SEED = 20260822
# Statistical checks reject at this level, so a correct program fails a
# run's checks with negligible probability.
ALPHA = 1e-6
Z_ALPHA = 5.0  # two-sided normal quantile for ALPHA


class Workload:
    name = ""

    def __init__(self, seed: int, tracer, tmp_dir, failures: list[str]):
        self.seed = seed
        self.tr = tracer
        self.tmp_dir = tmp_dir
        self.failures = failures
        self.attempted = 0
        self.failed = 0
        self.derived: dict[str, list[float]] = {}  # per-layer values not read off spans

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(f"{self.name}: {what}")

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_round(self, r: int) -> None:
        raise NotImplementedError

    def check_round(self, r: int, traced: bool) -> None:
        raise NotImplementedError

    def finish(self, traced: bool) -> None:
        raise NotImplementedError

    def counts(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed}


def _max_rel(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1.0)))


class InterfaceSites(Workload):
    """Criterion 9's per-site work: a fresh 1001x1001 field per site and
    busemann.rho_star_threshold on it."""

    name = "interface-sites"
    SITES = 8  # per round
    N = 1000
    LAMBDAS = (1.25, 2.0, 4.0)

    def __init__(self, *args):
        super().__init__(*args)
        self.spec = RngSpec(self.seed, "bench/interface-sites")
        self.estimates: list[float] = []
        self.last = []

    def _site(self, label: str):
        n = self.N
        with self.tr.span("rng.sample_exp_field", "rng.sample_exp_field.ns_per_draw",
                          units=(n + 1) ** 2):
            field = rng.sample_exp_field(n + 1, n + 1, 1.0, self.spec.sub(label),
                                         origin=(-n, -n))
        with self.tr.span("busemann.rho_star_threshold",
                          "busemann.rho_star_threshold.ms_per_call"):
            cif = busemann.rho_star_threshold(field)
        return field, cif

    def warm_up(self) -> None:
        self._site("warm-up")

    def run_round(self, r: int) -> None:
        # Keep the first site's field for the checks and only the result of
        # the others, as criterion 9 keeps no field past its site.
        self.last = [self._site(f"r{r}/site0")]
        for s in range(1, self.SITES):
            self.last.append((None, self._site(f"r{r}/site{s}")[1]))
        self.attempted += self.SITES

    def check_round(self, r: int, traced: bool) -> None:
        self.estimates += [cif.estimate for _, cif in self.last]
        field, cif = self.last[0]  # the sampled site of this round
        self.last = []
        n = self.N
        with self.tr.span("lpp.lpp_grid", f"lpp.lpp_grid.ns_per_cell.{n + 1}x{n + 1}",
                          units=(n + 1) ** 2):
            table = lpp.lpp_grid(field)
        rel = _max_rel(table.values, reference.antidiagonal_fill(field.values))
        self.expect(rel <= 1e-9, f"lpp_grid differs from the anti-diagonal fill by {rel:.2e}")
        with self.tr.span("lpp.walk_to_corner", "lpp.walk_to_corner.ns_per_step.full",
                          units=2 * n):
            steps, truncated = lpp.walk_to_corner(table.values, n, n)
        self.expect(not truncated and steps.tolist() ==
                    reference.corner_walk(table.values, n, n, 2 * n),
                    "full geodesic walk differs from the reference walk")
        del table
        with self.tr.span("busemann.competition_interface",
                          "busemann.competition_interface.ms_per_call"):
            pts = busemann.competition_interface(field)
        ref = reference.interface_walk(field.values, n - 1)
        self.expect(np.array_equal(cif.interface, ref) and np.array_equal(pts, ref),
                    f"interface differs from the two-table reference walk in round {r}")
        moves = np.diff(ref, axis=0)
        e1, e2 = int(np.sum(moves[:, 0] == -1)), int(np.sum(moves[:, 1] == -1))
        want = math.inf if e1 == 0 else 1.0 + math.sqrt(e2 / e1)
        self.expect(cif.estimate == want or abs(cif.estimate - want) <= 1e-12 * want,
                    f"rho* estimate {cif.estimate!r} != {want!r} from the reference walk")

    def finish(self, traced: bool) -> None:
        est = np.asarray(self.estimates)
        sites = len(est)
        for lam in self.LAMBDAS:
            p = 1.0 - 1.0 / lam
            gap = abs(float(np.mean(est <= lam)) - p)
            bound = Z_ALPHA * math.sqrt(p * (1.0 - p) / sites)
            self.expect(gap <= bound, f"P(rho* <= {lam}) off by {gap:.4f} > {bound:.4f} "
                                      f"over {sites} sites")

    def counts(self) -> dict:
        return {**super().counts(), "sites": len(self.estimates)}


class CornerHarvest(Workload):
    """Criteria 6 and 8's per-table work, forward fills only, in the
    proportions the two criteria fill their tables: one round is about a
    67th of them."""

    name = "corner-harvest"
    N = 1500
    # Corner tables per round at each rho.  Criterion 6 harvests 2000 edges
    # per rho through windows of 6, 15 and 4 edges: 334, 134 and 500 tables.
    TABLES = {1.5: 5, 2.0: 2, 4.0: 7}
    # Criterion 8 fills 2000 run tables of five walks each.
    RUN_RHO, RUN_N, RUN_TABLES, STARTS, MAX_RUN = 2.0, 800, 30, 5, 9
    SPACING = 48  # geodesic_initial_runs' default distance between starts
    # Criterion 6's doubling probe: 268 shared 1501x1501 fields, each with a
    # scale-3000 estimate on the whole field, and 67 of them also with a
    # scale-1500 estimate on the nested 751x751 corner, a strided view.
    PROBE_FIELDS, PROBE_M, PROBE_RHO, PROBE_WINDOW = 4, 1500, 2.0, 30
    # Harvested increments come from finite corners and neighbouring edges
    # of one table are dependent, so the KS bound allows this much beyond
    # the sampling bound; criterion 6 holds the same estimates to 0.04.
    KS_ALLOWANCE = 0.02

    def __init__(self, *args):
        super().__init__(*args)
        self.spec = RngSpec(self.seed, "bench/corner-harvest")
        # label -> (horizontal parts, vertical parts, their exponential means)
        self.inc = {f"rho={rho:g}": ([], [], rho, rho / (rho - 1.0)) for rho in self.TABLES}
        for scale in ("n=3000", "n=1500"):
            self.inc[f"shared field, {scale}"] = ([], [], self.PROBE_RHO,
                                                  self.PROBE_RHO / (self.PROBE_RHO - 1.0))
        self.runs: list[np.ndarray] = []
        self.tables = 0
        self.sampled = {}
        self.probe = None

    def _estimate(self, rho: float, spec: RngSpec):
        with self.tr.span("busemann.estimate_busemann_level",
                          f"busemann.estimate_busemann_level.ms_per_table.rho{rho:g}"):
            return busemann.estimate_busemann_level(rho, self.N, spec)

    def _runs(self, count: int, spec: RngSpec):
        with self.tr.span("busemann.geodesic_initial_runs",
                          "busemann.geodesic_initial_runs.ms_per_table",
                          units=count // self.STARTS):
            return busemann.geodesic_initial_runs(self.RUN_RHO, self.RUN_N, count, spec,
                                                  max_run=self.MAX_RUN)

    def _sample(self, rows: int, cols: int, spec: RngSpec, origin):
        with self.tr.span("rng.sample_exp_field", "rng.sample_exp_field.ns_per_draw",
                          units=rows * cols):
            return rng.sample_exp_field(rows, cols, 1.0, spec, origin=origin)

    def _probe(self, spec: RngSpec, nested: bool):
        """One shared field of the doubling probe and its estimates on it."""
        m, rho, w = self.PROBE_M, self.PROBE_RHO, self.PROBE_WINDOW
        field = self._sample(m + 1, m + 1, spec, (-m, -m))
        with self.tr.span("busemann.estimate_busemann_level",
                          "busemann.estimate_busemann_level.ms_per_table.shared_n3000"):
            full = busemann.estimate_busemann_level(rho, 2 * m, field=field, window=w)
        half = None
        if nested:
            with self.tr.span("busemann.estimate_busemann_level",
                              "busemann.estimate_busemann_level.ms_per_table.shared_n1500"):
                half = busemann.estimate_busemann_level(rho, m, field=field, window=w)
        return field, full, half

    def _keep(self, label: str, est) -> None:
        self.inc[label][0].append(est.horizontal)
        self.inc[label][1].append(est.vertical)
        self.tables += 1

    def warm_up(self) -> None:
        self._estimate(2.0, self.spec.sub("warm-up"))
        self._runs(self.STARTS, self.spec.sub("warm-up/runs"))

    def run_round(self, r: int) -> None:
        self.sampled = {}
        for rho, count in self.TABLES.items():
            for t in range(count):
                spec = self.spec.sub(f"r{r}/rho{rho:g}/t{t}")
                est = self._estimate(rho, spec)
                self._keep(f"rho={rho:g}", est)
                if t == 0:
                    self.sampled[rho] = (spec, est)
        self.runs.append(self._runs(self.RUN_TABLES * self.STARTS, self.spec.sub(f"r{r}/runs")))
        for k in range(self.PROBE_FIELDS):
            # One field in four also carries a nested scale-1500 estimate, as
            # in criterion 6; the round keeps that field for its checks.
            field, full, half = self._probe(self.spec.sub(f"r{r}/probe{k}"), nested=k == 0)
            self._keep("shared field, n=3000", full)
            if k == 0:
                self._keep("shared field, n=1500", half)
                self.probe = (field, full, half)
        self.attempted += (sum(self.TABLES.values()) + self.RUN_TABLES
                           + self.PROBE_FIELDS + 1)

    def _fill(self, field):
        rows, cols = field.values.shape
        with self.tr.span("lpp.lpp_grid", f"lpp.lpp_grid.ns_per_cell.{rows}x{cols}",
                          units=rows * cols):
            table = lpp.lpp_grid(field)
        res = reference.recursion_residual(table.values, field.values)
        self.expect(res <= 1e-9, f"{rows}x{cols} table breaks G - max(west, south) = Y "
                                 f"by {res:.2e}")
        return table.values

    def _edges(self, g, est, what: str) -> None:
        """The estimate's increments are the edge differences of g at its corner."""
        m1, m2 = est.corner
        w = est.window
        horizontal = np.diff(g[m1 - w:m1 + 1, m2])[::-1]
        vertical = np.diff(g[m1, m2 - w:m2 + 1])[::-1]
        tol = 1e-9 * abs(g[m1, m2])
        self.expect(np.max(np.abs(est.horizontal - horizontal)) <= tol and
                    np.max(np.abs(est.vertical - vertical)) <= tol,
                    f"{what} increments differ from the table's edge differences")

    def check_round(self, r: int, traced: bool) -> None:
        for rho, (spec, est) in self.sampled.items():
            # estimate_busemann_level draws its field from spec at exactly the
            # corner's size, so the same draw rebuilds the table it harvested.
            m1, m2 = est.corner
            g = self._fill(self._sample(m1 + 1, m2 + 1, spec, (-m1, -m2)))
            self._edges(g, est, f"rho={rho:g}")
        self.sampled = {}
        # The probe's shared field: the whole of it for the scale-3000
        # estimate, and its nested top-right corner, filled in place as a
        # strided view, for the scale-1500 one.
        field, full, half = self.probe
        self.probe = None
        self._edges(self._fill(field), full, "shared field, n=3000")
        m, (n1, n2) = self.PROBE_M, half.corner
        view = rng.WeightField((-n1, -n2), field.values[m - n1:, m - n2:])
        with self.tr.span("lpp.lpp_grid", f"lpp.lpp_grid.ns_per_cell.{n1 + 1}x{n2 + 1}.view",
                          units=view.values.size):
            nested = lpp.lpp_grid(view).values
        ref = reference.antidiagonal_fill(view.values)
        rel = _max_rel(nested, ref)
        self.expect(rel <= 1e-9, f"lpp_grid on a strided view differs from the "
                                 f"anti-diagonal fill by {rel:.2e}")
        self._edges(ref, half, "shared field, n=1500")
        # Run tables: same size as geodesic_initial_runs draws, walks from
        # the same start points.
        m = busemann.scaled_corner(self.RUN_RHO, self.RUN_N)[0]
        g = self._fill(self._sample(m + 1, m + 1, self.spec.sub(f"r{r}/check-runs"), (-m, -m)))
        for i in range(self.STARTS):
            o = self.SPACING * (i - (self.STARTS - 1) // 2)
            a, b = (m + o, m) if o <= 0 else (m, m - o)
            with self.tr.span("lpp.walk_to_corner", "lpp.walk_to_corner.ns_per_step.short",
                              units=self.MAX_RUN + 1):
                codes, _ = lpp.walk_to_corner(g, a, b, max_steps=self.MAX_RUN + 1)
            self.expect(codes.tolist() == reference.corner_walk(g, a, b, self.MAX_RUN + 1),
                        "short walk differs from the reference walk")

    def finish(self, traced: bool) -> None:
        crit = math.sqrt(-math.log(ALPHA / 2.0) / 2.0)
        for label, (hs, vs, mean_h, mean_v) in self.inc.items():
            for side, parts, mean in (("horizontal", hs, mean_h), ("vertical", vs, mean_v)):
                x = np.concatenate(parts)
                d = float(sps.kstest(x, "expon", args=(0.0, mean)).statistic)
                bound = crit / math.sqrt(len(x)) + self.KS_ALLOWANCE
                self.expect(d <= bound, f"{label} {side} increments: KS {d:.4f} > "
                                        f"{bound:.4f} against Exp(mean {mean:g})")
        runs = np.concatenate(self.runs)
        counts = np.bincount(np.minimum(runs, self.MAX_RUN), minlength=self.MAX_RUN + 1)
        probs = [reference.run_length_pmf(self.RUN_RHO, k) for k in range(self.MAX_RUN)]
        probs.append(1.0 - math.fsum(probs))
        expected = len(runs) * np.asarray(probs)
        # merge the tail into bins expecting at least five runs
        obs, exp_ = [], []
        acc_o = acc_e = 0.0
        for o, e in zip(counts[::-1], expected[::-1]):
            acc_o, acc_e = acc_o + o, acc_e + e
            if acc_e >= 5.0:
                obs.append(acc_o)
                exp_.append(acc_e)
                acc_o = acc_e = 0.0
        if acc_e and exp_:
            obs[-1] += acc_o
            exp_[-1] += acc_e
        if len(obs) >= 2:
            chi = float(np.sum((np.array(obs) - exp_) ** 2 / np.array(exp_)))
            pval = float(sps.chi2.sf(chi, len(obs) - 1))
            self.expect(pval >= ALPHA, f"run-length chi-square {chi:.2f} on {len(obs) - 1} "
                                       f"df, p = {pval:.2e}")

    def counts(self) -> dict:
        return {**super().counts(), "corner_tables": self.tables,
                "run_tables": len(self.runs) * self.RUN_TABLES}


class FastSuites(Workload):
    """The four quick verification suites through cgmlab.cli.main, in process."""

    name = "fast-suites"
    SUITES = {"verify-queueing": (1, 2, 3), "verify-multiline": (4,),
              "verify-coupled": (5, 7), "verify-exact": (10, 11, 12)}
    REPORT_KEYS = {"name", "statistic", "threshold", "n", "seed", "pass", "paper_ref"}
    SHORT, SHORT_WINDOWS, LONG = 1000, 8, 125_000

    def __init__(self, *args):
        super().__init__(*args)
        self.first_reports: dict[str, bytes] = {}
        self.last = []
        self.passes = 0

    def _suite(self, suite: str, out):
        """Exit code of one suite and the seconds its span covered (0 untraced)."""
        with self.tr.span("cli.main", suite=suite) as rec:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([suite, "--seed", str(PINNED_SEED), "--out", str(out)])
        return code, duration(rec)

    def warm_up(self) -> None:
        out = self.tmp_dir / "warm-up"
        self._suite("verify-multiline", out)
        shutil.rmtree(out)

    def run_round(self, r: int) -> None:
        base = self.tmp_dir / f"pass{r}"
        self.last = [(suite, *self._suite(suite, base / suite), base / suite)
                     for suite in self.SUITES]
        self.attempted += len(self.SUITES)
        self.passes += 1

    def check_round(self, r: int, traced: bool) -> None:
        pass_s = sum(span_s for _, _, span_s, _ in self.last)
        for suite, code, _, out in self.last:
            if code != 0:
                self.failed += 1
                continue
            data = (out / "reports.jsonl").read_bytes()
            rows = [json.loads(line) for line in data.decode().splitlines()]
            self.expect(bool(rows) and all(set(row) == self.REPORT_KEYS and row["pass"] is True
                                           for row in rows),
                        f"{suite} reports.jsonl lacks the seven keys or a pass")
            first = self.first_reports.setdefault(suite, data)
            self.expect(data == first, f"{suite} reports.jsonl changed between passes")
        shutil.rmtree(self.tmp_dir / f"pass{r}")
        self.last = []
        if traced:
            # The pass just timed ran these criteria inside cli.main; time
            # each directly on the same seed, and what is left of the pass
            # is the command layer's own cost.
            crit_s = 0.0
            for i in sorted(c for cs in self.SUITES.values() for c in cs):
                with self.tr.span("verification.run_criterion",
                                  f"verification.criterion_{i}.s") as rec:
                    res = verification.run_criterion(i, PINNED_SEED)
                self.expect(res.passed, f"criterion {i} failed at the pinned seed")
                crit_s += duration(rec)
            self.derived.setdefault("cli.overhead_s", []).append(pass_s - crit_s)

    def _lindley(self, j_left, arr, svc, metric) -> None:
        a, s = SeqWindow(1, arr), SeqWindow(1, svc)
        with self.tr.span("queueing.lindley_iterate", metric, units=len(arr)):
            out = queueing.lindley_iterate(j_left, a, s)
        dep, soj, idle = reference.lindley_sweep(j_left, arr, svc)
        self.expect(_max_rel(out.departures.values, dep) <= 1e-12 and
                    _max_rel(out.sojourn.values, soj) <= 1e-12,
                    f"lindley_iterate differs from the definitional sweep ({len(arr)} slots)")
        self.expect(np.array_equal(out.sojourn.values == svc, idle),
                    f"lindley_iterate idles on other slots ({len(arr)} slots)")

    def finish(self, traced: bool) -> None:
        gen = np.random.default_rng([self.seed, 1])
        for k in range(self.SHORT_WINDOWS + 1):
            length = self.LONG if k == self.SHORT_WINDOWS else self.SHORT
            rho = 1.5 + 2.5 * gen.random()
            lam = rho * (0.35 + 0.5 * gen.random())
            j_left = float(gen.exponential(1.0))
            arr, svc = gen.exponential(rho, length), gen.exponential(lam, length)
            metric = ("queueing.lindley_iterate.ns_per_slot_long" if length == self.LONG
                      else "queueing.lindley_iterate.ns_per_slot_short")
            self._lindley(j_left, arr, svc, metric)
        if traced:
            self._layer_probes()

    def _layer_probes(self) -> None:
        """Direct calls of the sweep-side layers on criteria 4, 5, 7 and 11 sizes."""
        spec = RngSpec(self.seed, "bench/fast-suites")
        burn = BoundaryPolicy.burn_in(0.2)
        rates, length = (1.5, 2.0, 4.0), 125_000
        with self.tr.span("rng.sample_exp_window", "rng.sample_exp_window.ns_per_draw",
                          units=length):
            svc = rng.sample_exp_window(1, length, 1.0, spec.sub("svc"))
        lines = [rng.sample_exp_window(1, length, r, spec.sub(f"line{i}"))
                 for i, r in enumerate(rates)]
        config = MultiConfig.from_lines(lines, rates)
        with self.tr.span("multiclass.multiline_step", "multiclass.multiline_step.ns_per_slot",
                          units=len(rates) * length):
            multiclass.multiline_step(config, svc, burn)
        for mu_rates, mu_len in (((1.5, 2.0, 4.0), 125_000), ((1.5, 3.0), 525_000)):
            with self.tr.span("multiclass.sample_mu_rho", "multiclass.sample_mu_rho.ns_per_slot",
                              units=len(mu_rates) * mu_len):
                multiclass.sample_mu_rho(mu_rates, 1, mu_len, spec.sub(f"mu{len(mu_rates)}"),
                                         burn)
        gen = np.random.default_rng([self.seed, 2])
        for n, m in ((100_000, 125_000), (100_000, 100_000)):
            a, b = gen.exponential(1.0, n), gen.exponential(1.0, m)
            with self.tr.span("stats.ks_two_sample", "stats.ks_two_sample.ns_per_point",
                              units=n + m):
                rep = stats.ks_two_sample(a, b, "bench", self.seed)
            self.expect(rep.n == n + m, "ks_two_sample miscounted its points")

    def counts(self) -> dict:
        return {**super().counts(), "suite_invocations": self.passes * len(self.SUITES)}


WORKLOADS = {w.name: w for w in (InterfaceSites, CornerHarvest, FastSuites)}
