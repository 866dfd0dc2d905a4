"""Sampler tests: distributional checks at 3 standard errors, determinism,
and structural path properties.  All seeds are fixed, so outcomes are
reproducible runs of the same checks."""

import math

import numpy as np
import pytest

from fracdep.analytic import (FnbpParams, FppParams, GammaParams, NoiseParams,
                              fnbp_mean, fpn_variance, fpp_mean, nb_pmf)
from fracdep.errors import DomainError, GridError, NumericalError, ResourceCapError
from fracdep import sim
from fracdep.sim import (DEFAULT_MAX_STEPS, PROCESSES, PathSpec, SamplePath, Seed,
                         _auto_step, _first_passage, _gamma_values,
                         _inverse_stable_values, _poisson_compose, increment_path,
                         sample_batch, sample_positive_stable, sample_process_path)
from fracdep.specfun import gamma_frac_moment


def within_se(estimate, truth, se, k=3.0):
    return abs(estimate - truth) <= k * se


def inverse_stable_path(beta, t_grid, stable_step, seed, max_steps=DEFAULT_MAX_STEPS):
    """The inverse stable clock on t_grid, drawn from seed's stream."""
    spec = PathSpec("inv_stable", FppParams(beta, 1.0), np.asarray(t_grid, dtype=float),
                    stable_step=stable_step, max_steps=max_steps)
    return sample_process_path(spec, seed)


class TestSeed:
    def test_paths_bit_for_bit(self):
        spec = PathSpec("fpp", FppParams(0.5, 1.0), np.array([1.0, 5.0, 10.0]))
        a = sample_process_path(spec, Seed(123, 5))
        b = sample_process_path(spec, Seed(123, 5))
        assert np.array_equal(a.values, b.values)

    def test_streams_differ(self):
        spec = PathSpec("gamma", GammaParams(1.0, 1.0), np.array([1.0, 2.0]))
        a = sample_process_path(spec, Seed(123, 0))
        b = sample_process_path(spec, Seed(123, 1))
        assert not np.array_equal(a.values, b.values)

    def test_stream_lag_correlation(self):
        # successive streams should look independent: |lag-1 corr| < 4/sqrt(R)
        R = 4000
        rng_draws = np.array([
            sample_process_path(
                PathSpec("gamma", GammaParams(1.0, 1.0), np.array([1.0])),
                Seed(99, i)).values[0]
            for i in range(R)
        ])
        x, y = rng_draws[:-1], rng_draws[1:]
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(R)

    def test_validation(self):
        with pytest.raises(DomainError):
            Seed(-1, 0)


class TestPositiveStable:
    def test_positivity(self):
        s = sample_positive_stable(0.4, Seed(1).rng(), size=10000)
        assert np.all(s > 0.0)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("u", [0.5, 1.0, 2.0])
    def test_laplace_transform(self, beta, u):
        s = sample_positive_stable(beta, Seed(2024).rng(), size=400_000)
        vals = np.exp(-u * s)
        emp = vals.mean()
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert within_se(emp, math.exp(-u ** beta), se)

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_positive_stable(1.0, Seed(1).rng())


class TestInverseStableMarginal:
    def test_zero_time(self):
        # a PathSpec grid is positive, but a gamma clock that underflows to 0
        # hands the inverse stable stage a zero target
        values = _inverse_stable_values(0.5, np.array([[0.0]]), None, [Seed(1).rng()],
                                        DEFAULT_MAX_STEPS)
        assert values[0, 0] == 0.0

    def test_degenerate_clock(self):
        path = inverse_stable_path(1.0, np.array([3.7]), None, Seed(1))
        assert path.values[0] == 3.7

    def test_mean(self):
        # E_b(t) has the law of (t/S)^b with S positive stable
        e = (1.0 / sample_positive_stable(0.5, Seed(5).rng(), size=400_000)) ** 0.5
        truth = 1.0 / math.gamma(1.5)
        se = e.std(ddof=1) / math.sqrt(len(e))
        assert within_se(e.mean(), truth, se)


class TestInverseStablePath:
    def test_monotone(self):
        grid = np.linspace(0.5, 20.0, 40)
        path = inverse_stable_path(0.6, grid, None, Seed(3))
        assert np.all(np.diff(path.values) >= 0.0)
        assert np.all(path.values > 0.0)

    def test_marginal_mean_with_bias_budget(self):
        beta, t = 0.5, 4.0
        step = t ** beta / math.gamma(1.5) / 800
        R = 20000
        vals = np.array([
            inverse_stable_path(beta, np.array([t]), step, Seed(17, i)).values[0]
            for i in range(R)
        ])
        truth = t ** beta / math.gamma(1.5)
        se = vals.std(ddof=1) / math.sqrt(R)
        # grid passage quantizes upward: allow 3 SE plus one-step bias
        assert abs(vals.mean() - truth) <= 3.0 * se + step

    def test_refinement_stability(self):
        # halving the step moves the covariance estimate by less than the
        # Monte Carlo uncertainty
        beta, s, t = 0.5, 1.0, 5.0
        R = 4000

        def cov_at(step, root):
            es = np.empty(R)
            et = np.empty(R)
            for i in range(R):
                p = inverse_stable_path(beta, np.array([s, t]), step, Seed(root, i))
                es[i], et[i] = p.values
            c = float(np.cov(es, et, ddof=1)[0, 1])
            prods = (es - es.mean()) * (et - et.mean())
            return c, float(prods.std(ddof=1)) / math.sqrt(R)

        step = t ** beta / math.gamma(1.5) / 400
        c_coarse, se_coarse = cov_at(step, 1001)
        c_fine, se_fine = cov_at(step / 2.0, 1002)
        assert abs(c_coarse - c_fine) <= 3.0 * math.hypot(se_coarse, se_fine)

    def test_resource_cap(self):
        with pytest.raises(ResourceCapError):
            inverse_stable_path(0.5, np.array([100.0]), 1e-6, Seed(1), max_steps=1000)


def eager_first_passage(beta, targets, step, rng, max_steps):
    """Reference: first passage that transforms every stable step it draws."""
    t_max = float(targets[-1])
    if t_max == 0.0:
        return np.zeros_like(targets)
    expected = max(16, int(t_max ** beta / math.exp(math.lgamma(1.0 + beta)) / step))
    chunk = int(min(max(1024, 2 * expected), 2 ** 20))
    scale = step ** (1.0 / beta)
    if scale == 0.0:
        raise NumericalError(f"stable_step={step} underflows step^(1/beta); increase it")
    segments = []
    total = 0
    level = 0.0
    while level <= t_max:
        if total >= max_steps:
            raise ResourceCapError(
                f"first passage needed more than max_steps={max_steps} steps")
        n = min(chunk, max_steps - total)
        with np.errstate(over="ignore", invalid="ignore"):
            seg = np.cumsum(scale * sample_positive_stable(beta, rng, size=n)) + level
        segments.append(seg)
        total += n
        level = float(seg[-1])
        if math.isnan(level):
            raise NumericalError("stable increment sum became NaN")
    d_path = np.concatenate(segments) if len(segments) > 1 else segments[0]
    k = np.searchsorted(d_path, targets, side="right")
    return (k + 1).astype(float) * step


def lazy_first_passage(beta, targets, step, rng, max_steps):
    """_first_passage on a single row of targets."""
    return _first_passage(beta, targets[None], step, [rng], max_steps)[0]


def first_passage_both(beta, targets, step, seed, max_steps=10 ** 8):
    """(lazy, eager) outcomes from equal streams: the clock values, or the
    exception type, and the next draw of each stream."""
    out = []
    for fn in (lazy_first_passage, eager_first_passage):
        rng = seed.rng()
        try:
            value = fn(beta, targets, step, rng, max_steps)
        except ResourceCapError as exc:
            value = type(exc)
        out.append((value, rng.random()))
    return out


class TestLazyFirstPassage:
    TARGETS = np.array([0.5, 1.0, 3.0, 10.0])

    @pytest.mark.parametrize("beta", [0.1, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("default_step", [False, True])
    def test_bitwise_equal_to_eager(self, beta, default_step):
        t_max = float(self.TARGETS[-1])
        step = _auto_step(beta, t_max) if default_step else _auto_step(beta, t_max, 700)
        for i in range(8):
            (lazy, lazy_next), (eager, eager_next) = first_passage_both(
                beta, self.TARGETS, step, Seed(404, i))
            assert lazy.tobytes() == eager.tobytes()
            assert lazy_next == eager_next  # same draws consumed

    def test_bitwise_equal_across_chunks(self):
        # beta = 0.1: the passage count has a heavy right tail, and some of
        # these seeds overrun the first chunk of twice its mean
        beta, step = 0.1, _auto_step(0.1, 10.0, 2000)
        expected = int(10.0 ** beta / math.gamma(1.0 + beta) / step)
        chunk = max(1024, 2 * expected)
        multi = 0
        for i in range(40):
            (lazy, lazy_next), (eager, eager_next) = first_passage_both(
                beta, self.TARGETS, step, Seed(405, i))
            assert lazy.tobytes() == eager.tobytes()
            assert lazy_next == eager_next
            multi += lazy[-1] / step - 1 >= chunk
        assert multi >= 1

    def test_resource_cap_where_eager_raises(self):
        beta, step = 0.5, _auto_step(0.5, 10.0, 1000)
        outcomes = set()
        for i in range(40):
            (lazy, _), (eager, _) = first_passage_both(
                beta, self.TARGETS, step, Seed(406, i), max_steps=1500)
            if eager is ResourceCapError:
                assert lazy is ResourceCapError
            else:
                assert lazy.tobytes() == eager.tobytes()
            outcomes.add(eager is ResourceCapError)
        assert outcomes == {True, False}


class TestGammaPath:
    def test_moments(self):
        g = GammaParams(2.0, 1.5)
        R = 50000
        rng = Seed(11).rng()
        vals = np.array([_gamma_values(g, np.array([2.0]), [rng])[0, 0] for i in range(R)])
        truth = 1.5 * 2.0 / 2.0
        se = vals.std(ddof=1) / math.sqrt(R)
        assert within_se(vals.mean(), truth, se)

    def test_fractional_moment(self):
        g = GammaParams(1.0, 1.0)
        R = 30000
        rng = Seed(12).rng()
        y = np.array([_gamma_values(g, np.array([2.0]), [rng])[0, 0] for _ in range(R)])
        emp = np.sqrt(y)
        truth = gamma_frac_moment(0.5, 1.0, 2.0)
        se = emp.std(ddof=1) / math.sqrt(R)
        assert within_se(emp.mean(), truth, se)

    def test_disjoint_increments_uncorrelated(self):
        g = GammaParams(1.0, 1.0)
        R = 20000
        rng = Seed(13).rng()
        a = np.empty(R)
        b = np.empty(R)
        for i in range(R):
            y = _gamma_values(g, np.array([1.0, 2.0, 3.0]), [rng])[0]
            a[i] = y[1] - y[0]
            b[i] = y[2] - y[1]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 3.0 / math.sqrt(R)


class TestPoissonCount:
    def test_mean(self):
        rng = Seed(21).rng()
        draws = rng.poisson(4.0, size=200_000)
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert within_se(draws.mean(), 4.0, se)

    def test_pmf_at_zero(self):
        rng = Seed(22).rng()
        draws = rng.poisson(1.5, size=200_000)
        p0 = np.mean(draws == 0)
        se = math.sqrt(p0 * (1 - p0) / len(draws))
        assert within_se(p0, math.exp(-1.5), se)


def reference_process_path(spec, seed):
    """Reference: the per-process dispatch that the stage table replaced."""

    def sample_inverse_stable_path(beta, t_grid, stable_step, rng,
                                   max_steps=DEFAULT_MAX_STEPS):
        grid = np.asarray(t_grid, dtype=float)
        if np.any(np.diff(grid) <= 0.0) or np.any(grid < 0.0):
            raise DomainError("t_grid must be strictly increasing and nonnegative")
        if beta == 1.0:
            return SamplePath(grid, grid.copy())
        if not (0.0 < beta < 1.0):
            raise DomainError(f"beta must be in (0, 1], got {beta}")
        return SamplePath(grid, _inverse_stable_values(beta, grid[None], stable_step,
                                                       [rng], max_steps)[0])

    def sample_gamma_path(gamma, t_grid, rng):
        grid = np.asarray(t_grid, dtype=float)
        if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
            raise DomainError("t_grid must be strictly increasing and positive")
        return SamplePath(grid, _gamma_values(gamma, grid, [rng])[0])

    rng = seed.rng()
    grid = spec.t_grid
    kind = spec.process
    params = spec.params
    if kind == "gamma":
        return sample_gamma_path(params, grid, rng)
    if kind == "inv_stable":
        return sample_inverse_stable_path(params.beta, grid, spec.stable_step,
                                          rng, spec.max_steps)
    if kind == "poisson":
        lam, clock = params.lam, grid
    elif kind == "fpp":
        lam = params.lam
        clock = _inverse_stable_values(params.beta, grid[None], spec.stable_step,
                                       [rng], spec.max_steps)[0]
    elif kind == "nb":
        lam, clock = params.fpp.lam, _gamma_values(params.gamma, grid, [rng])[0]
    elif kind == "fnbp":
        fpp = params.fpp
        y = _gamma_values(params.gamma, grid, [rng])
        lam, clock = fpp.lam, _inverse_stable_values(fpp.beta, y, spec.stable_step,
                                                     [rng], spec.max_steps)[0]
    else:
        raise DomainError(f"unknown process {kind!r}")
    return SamplePath(grid, _poisson_compose(lam, clock[None], [rng])[0])


def process_params(process, beta):
    gamma = GammaParams(1.3, 0.7)
    if process == "gamma":
        return gamma
    if process in ("nb", "fnbp"):
        return FnbpParams(FppParams(beta, 1.2), gamma)
    return FppParams(beta, 1.2)


class TestStageComposition:
    GRID = np.array([0.5, 1.0, 2.0, 4.0])

    @pytest.mark.parametrize("process", PROCESSES)
    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("stable_step", [None, 0.02])
    def test_bitwise_equal_to_dispatch(self, process, beta, stable_step, monkeypatch):
        spec = PathSpec(process, process_params(process, beta), self.GRID,
                        stable_step=stable_step)
        streams = []
        make_rng = Seed.rng

        def recording_rng(seed, *extra):
            streams.append(make_rng(seed, *extra))
            return streams[-1]

        monkeypatch.setattr(Seed, "rng", recording_rng)
        for i in range(4):
            path = sample_process_path(spec, Seed(77, i))
            ref = reference_process_path(spec, Seed(77, i))
            ref_next, path_next = streams.pop().random(), streams.pop().random()
            assert path.times.tobytes() == ref.times.tobytes()
            assert path.values.tobytes() == ref.values.tobytes()
            assert path_next == ref_next  # same draws consumed

    def test_identity_clock_is_a_copy(self):
        spec = PathSpec("inv_stable", FppParams(1.0, 1.0), np.array([1.0, 2.0]))
        path = sample_process_path(spec, Seed(1))
        assert path.values is not spec.t_grid
        assert np.array_equal(path.values, spec.t_grid)


class TestSampleBatch:
    """sample_batch samples rows in groups; every row must be bitwise the
    path its stream gives alone, whatever group it lands in."""

    GRID = np.array([0.5, 1.0, 2.0, 4.0])

    @staticmethod
    def outcome(fn):
        """The bytes fn() returns, or the type and message of what it raises."""
        try:
            return fn().tobytes()
        except (NumericalError, ResourceCapError) as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize("process", PROCESSES)
    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("stable_step", [None, 0.02])
    def test_rows_bitwise_equal_to_single_paths(self, process, beta, stable_step,
                                                monkeypatch):
        # with stable_step=None the fnbp rows each take the default step
        # for their own gamma clock
        spec = PathSpec(process, process_params(process, beta), self.GRID,
                        stable_step=stable_step)
        streams = range(5, 11)
        made = []
        make_rng = Seed.rng

        def recording_rng(seed, *extra):
            made.append(make_rng(seed, *extra))
            return made[-1]

        monkeypatch.setattr(Seed, "rng", recording_rng)
        batch = sample_batch(spec, Seed(77), streams)
        batch_next = [rng.random() for rng in made]
        assert batch.shape == (len(streams), len(self.GRID))
        for row, stream, row_next in zip(batch, streams, batch_next):
            made.clear()
            ref = reference_process_path(spec, Seed(77, stream))
            path = sample_process_path(spec, Seed(77, stream))
            ref_next, path_next = (rng.random() for rng in made)
            assert row.tobytes() == ref.values.tobytes() == path.values.tobytes()
            assert row_next == ref_next == path_next  # same draws consumed

    def test_rows_overrunning_their_first_chunk(self):
        # the beta = 0.1 seeds of TestLazyFirstPassage that need more than
        # one chunk, now sharing groups with rows that need one
        beta, step = 0.1, _auto_step(0.1, 10.0, 2000)
        targets = TestLazyFirstPassage.TARGETS
        spec = PathSpec("inv_stable", FppParams(beta, 1.0), targets, stable_step=step)
        batch = sample_batch(spec, Seed(405), range(40))
        chunk = max(1024, 2 * int(10.0 ** beta / math.gamma(1.0 + beta) / step))
        for i, row in enumerate(batch):
            rng = Seed(405, i).rng()
            eager = eager_first_passage(beta, targets, step, rng, 10 ** 8)
            assert row.tobytes() == eager.tobytes()
        assert np.sum(batch[:, -1] / step - 1 >= chunk) >= 1

    def test_ragged_chunks_and_overruns(self):
        # fnbp rows at an explicit step draw chunks sized by their own gamma
        # clock, so rows of different chunk lengths share blocks, and at
        # beta = 0.1 some of them need a second chunk
        beta, gamma = 0.1, GammaParams(1.0, 1.0)
        grid, step = np.array([1.0, 10.0]), _auto_step(0.1, 10.0, 1000)
        spec = PathSpec("fnbp", FnbpParams(FppParams(beta, 1.0), gamma), grid,
                        stable_step=step)
        batch = sample_batch(spec, Seed(408), range(60))
        chunks, multi = set(), 0
        for i, row in enumerate(batch):
            assert row.tobytes() == reference_process_path(spec, Seed(408, i)).values.tobytes()
            rng = Seed(408, i).rng()
            y = _gamma_values(gamma, grid, [rng])[0]
            chunk = max(1024, 2 * int(y[-1] ** beta / math.gamma(1.0 + beta) / step))
            chunks.add(chunk)
            multi += lazy_first_passage(beta, y, step, rng, 10 ** 8)[-1] / step - 1 >= chunk
        assert len(chunks) > 10 and multi >= 1

    @pytest.mark.parametrize("process,stable_step",
                             [("fpp", 0.02), ("fnbp", 0.02), ("fnbp", None), ("nb", None)])
    def test_independent_of_group_size(self, process, stable_step, monkeypatch):
        spec = PathSpec(process, process_params(process, 0.5), self.GRID,
                        stable_step=stable_step)
        streams = range(3, 40)
        default = sample_batch(spec, Seed(31), streams)
        for budget in (1, 2 ** 40):  # one row per group; every row in one group
            monkeypatch.setattr(sim, "GROUP_ELEMENTS", budget)
            assert sample_batch(spec, Seed(31), streams).tobytes() == default.tobytes()

    def test_resource_cap_as_per_path(self):
        # the seeds of TestLazyFirstPassage.test_resource_cap_where_eager_raises:
        # some rows exceed max_steps, others do not
        spec = PathSpec("inv_stable", FppParams(0.5, 1.0), TestLazyFirstPassage.TARGETS,
                        stable_step=_auto_step(0.5, 10.0, 1000), max_steps=1500)
        self.assert_errors_as_per_path(spec, Seed(406), 40, {ResourceCapError})

    def test_poisson_limit_and_resource_cap_as_per_path(self):
        # lam puts the Poisson mean of about half the rows past the sampler's
        # limit, and max_steps stops the longest passages first: the first
        # failing row of a range decides the error, whichever stage raises it
        clock = PathSpec("inv_stable", FppParams(0.5, 1.0), self.GRID, stable_step=0.02)
        last = sample_batch(clock, Seed(407), range(40))[:, -1]
        lam = float(sim._POISSON_MEAN_MAX / np.median(last))
        spec = PathSpec("fpp", FppParams(0.5, lam), self.GRID, stable_step=0.02,
                        max_steps=int(np.quantile(last, 0.8) / 0.02))
        self.assert_errors_as_per_path(spec, Seed(407), 40,
                                       {ResourceCapError, NumericalError})

    def assert_errors_as_per_path(self, spec, seed, reps, kinds):
        single = [self.outcome(lambda i=i: sample_process_path(spec, seed.child(i)).values)
                  for i in range(reps)]
        assert {o[0] for o in single if isinstance(o, tuple)} == kinds
        assert any(isinstance(o, bytes) for o in single)
        for lo in range(0, reps, 3):
            streams = range(lo, min(lo + 8, reps))
            first_error = next((single[i] for i in streams
                                if isinstance(single[i], tuple)), None)
            batch = self.outcome(lambda: sample_batch(spec, seed, streams))
            if first_error is None:
                assert batch == b"".join(single[i] for i in streams)
            else:
                assert batch == first_error


class TestProcessPaths:
    def test_fpp_marginal_mean(self):
        p = FppParams(0.5, 1.0)
        step = 1.0 / math.gamma(1.5) / 600
        spec = PathSpec("fpp", p, np.array([1.0]), stable_step=step)
        R = 20000
        vals = np.array([sample_process_path(spec, Seed(5, i)).values[0]
                         for i in range(R)])
        se = vals.std(ddof=1) / math.sqrt(R)
        assert abs(vals.mean() - fpp_mean(p, 1.0)) <= 3.0 * se + p.lam * step

    def test_nb_marginal_pmf_chi_square(self):
        from scipy import stats
        fn = FnbpParams(FppParams(1.0, 1.0), GammaParams(1.0, 1.0))
        spec = PathSpec("nb", fn, np.array([2.0]))
        R = 50000
        vals = np.array([sample_process_path(spec, Seed(6, i)).values[0]
                         for i in range(R)]).astype(int)
        kmax = 20
        counts = np.bincount(np.minimum(vals, kmax), minlength=kmax + 1)
        probs = np.array([nb_pmf(fn, k, 2.0) for k in range(kmax)])
        probs = np.append(probs, 1.0 - probs.sum())
        chi2, pval = stats.chisquare(counts, R * probs)
        assert pval > 0.001

    def test_fnbp_marginal_mean(self):
        fn = FnbpParams(FppParams(0.5, 1.0), GammaParams(1.0, 1.0))
        spec = PathSpec("fnbp", fn, np.array([2.0]),
                        stable_step=2.0 ** 0.5 / math.gamma(1.5) / 600)
        R = 20000
        vals = np.array([sample_process_path(spec, Seed(7, i)).values[0]
                         for i in range(R)])
        se = vals.std(ddof=1) / math.sqrt(R)
        assert abs(vals.mean() - fnbp_mean(fn, 2.0)) <= 3.0 * se + 0.02

    def test_all_paths_monotone(self):
        grid = np.array([0.5, 1.0, 2.0, 4.0])
        cases = [
            PathSpec("poisson", FppParams(1.0, 2.0), grid),
            PathSpec("gamma", GammaParams(1.0, 1.0), grid),
            PathSpec("inv_stable", FppParams(0.5, 1.0), grid),
            PathSpec("fpp", FppParams(0.5, 1.0), grid),
            PathSpec("nb", FnbpParams(FppParams(1.0, 1.0), GammaParams(1.0, 1.0)), grid),
            PathSpec("fnbp", FnbpParams(FppParams(0.5, 1.0), GammaParams(1.0, 1.0)), grid),
        ]
        for spec in cases:
            path = sample_process_path(spec, Seed(31, 0))
            assert np.all(np.diff(path.values) >= 0.0), spec.process
            assert path.values[0] >= 0.0

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            PathSpec("fpp", GammaParams(1.0, 1.0), np.array([1.0]))
        with pytest.raises(DomainError):
            PathSpec("fpp", FppParams(0.5, 1.0), np.array([2.0, 1.0]))
        with pytest.raises(DomainError):
            PathSpec("warp", FppParams(0.5, 1.0), np.array([1.0]))

    @pytest.mark.parametrize("process", PROCESSES)
    def test_parameter_type(self, process):
        right = type(process_params(process, 0.5))
        for params in (FppParams(0.5, 1.0), GammaParams(1.0, 1.0),
                       FnbpParams(FppParams(0.5, 1.0), GammaParams(1.0, 1.0))):
            if isinstance(params, right):
                PathSpec(process, params, np.array([1.0]))
            else:
                with pytest.raises(DomainError, match=f"needs {right.__name__}$"):
                    PathSpec(process, params, np.array([1.0]))


class TestIncrementPath:
    def test_flat_segment_gives_zero(self):
        path = SamplePath(np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 2.0]))
        inc = increment_path(path, 1.0)
        assert np.all(inc.values == 0.0)

    def test_adjacent_increments_telescope(self):
        path = SamplePath(np.array([1.0, 2.0, 3.0, 4.0]),
                          np.array([0.0, 2.0, 2.0, 5.0]))
        inc = increment_path(path, 1.0)
        assert np.sum(inc.values) == path.values[-1] - path.values[0]

    def test_missing_partner_raises(self):
        path = SamplePath(np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 2.0]))
        with pytest.raises(GridError):
            increment_path(path, 0.5, times=[1.0])
        with pytest.raises(GridError):
            increment_path(path, 7.0)

    def test_partner_rounded_above_grid_point(self):
        # 0.2 + 0.1 is 0.30000000000000004, just above the grid point 0.3
        grid = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        path = SamplePath(grid, np.array([0.0, 1.0, 3.0, 6.0, 10.0]))
        inc = increment_path(path, 0.1)
        explicit = increment_path(path, 0.1, times=grid[:4])
        assert np.array_equal(inc.times, grid[:4])
        assert np.array_equal(inc.values, [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(explicit.values, inc.values)

    def test_negative_values_rejected(self):
        with pytest.raises(DomainError, match="nonnegative"):
            SamplePath([1.0, 2.0, 3.0], [0.0, -4.0, 1.0], nondecreasing=False)
        with pytest.raises(DomainError, match="nonnegative"):
            SamplePath([1.0, 2.0], [-1.0, 0.0])
        SamplePath([1.0, 2.0, 3.0], [2.0, 0.0, 1.0], nondecreasing=False)

    def test_fpn_empirical_variance(self):
        p = FppParams(0.3, 1.0)
        noise = NoiseParams(p, 1.0)
        t = 100.0
        step = (t + 1) ** 0.3 / math.gamma(1.3) / 700
        spec = PathSpec("fpp", p, np.array([t, t + 1.0]), stable_step=step)
        R = 20000
        vals = np.empty(R)
        for i in range(R):
            path = sample_process_path(spec, Seed(8, i))
            vals[i] = increment_path(path, 1.0, times=[t]).values[0]
        emp = vals.var(ddof=1)
        truth = fpn_variance(noise, t)
        dev = vals - vals.mean()
        se = np.sqrt((np.mean(dev ** 4) - emp ** 2 * (R - 3) / (R - 1)) / R)
        assert within_se(emp, truth, se)
