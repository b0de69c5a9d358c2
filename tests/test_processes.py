"""Sample-path laws and path file formats."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from prelog_lab import bounds, processes
from prelog_lab.bounds import (
    FadingModel,
    onoff_model,
    phase_noise_model,
    rayleigh_band_model,
)
from prelog_lab.errors import DomainError
from prelog_lab.processes import (
    empirical_autocov,
    marginal_draws,
    read_path_binary,
    simulate_gaussian,
    simulate_model,
    simulate_onoff,
    simulate_phase_noise,
    tail_probability_mc,
    write_path_binary,
    write_path_csv,
)
from prelog_lab.spectra import SpectralDensity, autocovariance, make_rect_band

from oracles import (
    LONG_DOUBLE_IS_EXTENDED,
    exact_harmonic_sum,
    gaussian_marginal_draws,
    path_beside_grid_synthesis,
    path_binary_elements,
    path_csv_rows,
    random_density,
    sinc,
    whole_table_synthesis,
)


class TestReproducibility:
    def test_gaussian_bit_identical(self):
        S = make_rect_band(0.2)
        a = simulate_gaussian(S, 512, 99)
        b = simulate_gaussian(S, 512, 99)
        assert np.array_equal(a.values, b.values)
        c = simulate_gaussian(S, 512, 100)
        assert not np.array_equal(a.values, c.values)

    def test_onoff_and_phase_bit_identical(self):
        assert np.array_equal(
            simulate_onoff(0.1, 256, 5).values, simulate_onoff(0.1, 256, 5).values
        )
        assert np.array_equal(
            simulate_phase_noise(256, 5).values, simulate_phase_noise(256, 5).values
        )


class TestGaussianPath:
    def test_iid_empirical_covariance(self):
        path = simulate_gaussian(make_rect_band(0.5), 100_000, 1)
        emp = empirical_autocov(path, 1)
        assert emp.values[0].real == pytest.approx(1.0, abs=0.02)
        assert abs(emp.values[1]) <= 0.02

    def test_band_empirical_covariance_all_lags(self):
        S = make_rect_band(0.15)
        n = 100_000
        path = simulate_gaussian(S, n, 2)
        emp = empirical_autocov(path, 8)
        tol = 5.0 / math.sqrt(n)
        for m in range(9):
            want = autocovariance(S, m)
            assert abs(emp.values[m] - want) <= tol

    def test_single_sample(self):
        path = simulate_gaussian(make_rect_band(0.25), 1, 4)
        assert path.n == 1 and path.seed == 4

    def test_guards(self):
        with pytest.raises(DomainError):
            simulate_gaussian(make_rect_band(0.25), 0, 1)
        # 16 bytes a sample past 2**63 bytes: numpy cannot even size the array
        with pytest.raises(DomainError):
            simulate_gaussian(make_rect_band(0.25), 2**59, 1)

    def test_grid_numpy_cannot_size_is_memory_error(self):
        # 2**59 - 1 samples take a grid of 2**60 points, 2**64 bytes
        with pytest.raises(MemoryError):
            simulate_gaussian(make_rect_band(0.25), 2**59 - 1, 1)
        with pytest.raises(MemoryError):
            simulate_onoff(1 / 16, 2**59 - 1, 1)


class TestOnoffPath:
    def test_one_parity_class_is_zero(self):
        for seed in range(6):
            path = simulate_onoff(1 / 16, 2001, seed)
            even_zero = np.all(path.values[0::2] == 0)
            odd_zero = np.all(path.values[1::2] == 0)
            assert even_zero != odd_zero  # exactly one class dies
            live = path.values[1::2] if even_zero else path.values[0::2]
            assert np.all(np.abs(live) > 0)

    def test_both_parities_occur(self):
        kinds = set()
        for seed in range(12):
            path = simulate_onoff(1 / 16, 100, seed)
            kinds.add(bool(np.all(path.values[0::2] == 0)))
        assert kinds == {True, False}

    def test_nonzero_fraction(self):
        path = simulate_onoff(1 / 16, 100_000, 7)
        frac = np.mean(np.abs(path.values) > 0)
        assert abs(frac - 0.5) <= 0.01

    def test_empirical_covariance(self):
        W = 1 / 16
        n = 100_000
        path = simulate_onoff(W, n, 7)
        emp = empirical_autocov(path, 4)
        assert abs(emp.values[1]) <= 0.02
        assert abs(emp.values[2] - sinc(4 * W)) <= 0.02
        # closed form through the spectrum agrees with the product law
        assert autocovariance(onoff_model(W).spectrum, 2).real == pytest.approx(
            sinc(4 * W), abs=1e-12
        )

    def test_guards(self):
        with pytest.raises(DomainError):
            simulate_onoff(0.3, 100, 1)
        with pytest.raises(DomainError):
            simulate_onoff(1 / 16, 0, 1)
        with pytest.raises(DomainError):
            simulate_onoff(1 / 16, 2**59, 1)


class TestSynthesisMemory:
    @pytest.mark.parametrize("simulate, bound", [
        (lambda seed: simulate_gaussian(make_rect_band(0.1), 100_000, seed), 16),
        (lambda seed: simulate_onoff(0.125, 100_000, seed), 16),
        (lambda seed: simulate_gaussian(make_rect_band(0.1), 1_000_000, seed), 42),
        (lambda seed: simulate_onoff(0.125, 1_000_000, seed), 26),
    ], ids=["gaussian", "onoff", "gaussian-1e6", "onoff-1e6"])
    def test_traced_peak(self, simulate, bound):
        # a grid of at most 4 times the samples computed, the FFT in place
        # in it and the path cut from it, and the spread's 2 MiB of weights
        # freed before the transform: at n = 1e6 a Gaussian path peaks at
        # 38.1 MiB traced, an on-off path at 21.3; the bounds leave 4 MiB
        tracemalloc.start()
        try:
            simulate(3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2**20

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
    @pytest.mark.parametrize("call, bound", [
        ("simulate_gaussian(make_rect_band(0.1), 10**6, 3)", 52),
        ("simulate_onoff(0.125, 10**6, 3)", 38),
    ], ids=["gaussian-1e6", "onoff-1e6"])
    def test_resident_peak(self, call, bound):
        # tracemalloc misses numpy's FFT buffers, the peak resident set
        # does not: over its value after import it rises by 42.7 MiB for
        # the Gaussian path and 29.2 MiB for the on-off one, against 63.5
        # and 46.8 MiB with the path allocated beside the grid.  A process
        # of its own, because the peak resident set never falls; VmHWM,
        # because ru_maxrss keeps the peak of the forking process.
        script = ("import re, sys\n"
                  "sys.path.insert(0, sys.argv[1])\n"
                  "from prelog_lab.processes import simulate_gaussian, simulate_onoff\n"
                  "from prelog_lab.spectra import make_rect_band\n"
                  "def hwm():\n"
                  "    status = open('/proc/self/status').read()\n"
                  "    return int(re.search(r'VmHWM:\\s*(\\d+) kB', status).group(1))\n"
                  "before = hwm()\n"
                  f"path = {call}\n"
                  "print(hwm() - before)\n")
        src = os.path.dirname(os.path.dirname(processes.__file__))
        proc = subprocess.run([sys.executable, "-c", script, src],
                              capture_output=True, text=True, timeout=120, check=True)
        assert int(proc.stdout) < bound * 1024


class TestSynthesisBits:
    """simulate_model's paths against the synthesis that kept the path
    beside its grid: the same bits.  n = 1 to 5 give L // 2 = 0 to 2, on
    the floor grid; on-off paths of 8191 and 8192 samples take the floor
    grid, of 8193 a grid just above it or, with the evens off, reach one
    past it, as those of 16385 and 131073 samples do past theirs; on-off
    paths of 8191 to 16385 and of 131073 samples copy the samples below the
    centre before the move; Gaussian paths of 131073 and 196615 samples
    move in pieces of 2**16."""

    # name -> (model, seed, the parity its on-off path turns off)
    MODELS = {
        "band": (rayleigh_band_model(0.1), 3, None),
        "custom": (FadingModel("custom", random_density(np.random.default_rng(7),
                                                       unit_variance=True), "rayleigh"), 7, None),
        "onoff-evens-off": (onoff_model(0.0625), 3, 0),
        "onoff-odds-off": (onoff_model(0.0625), 5, 1),
    }

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8191, 8192, 8193, 16385, 100001,
                                   131073, 196615])
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_path_bits(self, name, n):
        model, seed, off = self.MODELS[name]
        S = model.spectrum
        if off is not None:
            assert processes.stream_rng(seed, processes.STREAM_PARITY).integers(0, 2) == off
            S = make_rect_band(0.0625, variance=2.0)
        lam, amp = processes._harmonics(S, seed)
        want = path_beside_grid_synthesis(lam, amp, n, off)
        assert simulate_model(model, n, seed).values.tobytes() == want.tobytes()


@pytest.mark.skipif(not LONG_DOUBLE_IS_EXTENDED,
                    reason="the exact-phase sum needs an extended long double")
class TestSynthesisError:
    @pytest.mark.parametrize("seed", [3, 5, 11])
    @pytest.mark.parametrize("spectrum", ["band", "custom", "onoff"])
    def test_ten_times_below_the_table_product(self, spectrum, seed):
        # the table product's phase error grows with k, to about 2e-12 to
        # 2e-11 here; the NUFFT's does not, and stays near 2e-15 to 4e-15
        n, off = 100_000, None
        if spectrum == "band":
            S = make_rect_band(0.05)
        elif spectrum == "custom":
            S = random_density(np.random.default_rng(seed), unit_variance=True)
        else:
            S, off = make_rect_band(0.0625, variance=2.0), seed % 2
        lam, amp = processes._harmonics(S, seed)
        kept = np.arange(n) if off is None else np.arange(1 - off, n, 2)
        ks = np.union1d(kept[::997], kept[-1:])
        exact = exact_harmonic_sum(lam, amp, ks)
        got = processes._synthesize(lam, amp, n, off)[ks]
        table = whole_table_synthesis(lam, amp, n)[ks]
        assert np.max(np.abs(got - exact)) * 10 <= np.max(np.abs(table - exact))


class TestPhaseNoisePath:
    def test_unit_modulus_exact(self):
        path = simulate_phase_noise(100_000, 3)
        assert np.max(np.abs(np.abs(path.values) - 1.0)) == 0.0

    def test_mean_small(self):
        n = 100_000
        path = simulate_phase_noise(n, 4)
        assert abs(np.mean(path.values)) <= 3.0 / math.sqrt(n) * 2

    def test_lags_vanish(self):
        path = simulate_phase_noise(100_000, 5)
        emp = empirical_autocov(path, 4)
        assert emp.values[0].real == pytest.approx(1.0, abs=0.02)
        for m in (1, 2, 3, 4):
            assert abs(emp.values[m]) <= 0.02

    def test_guards(self):
        for n in (0, 2**59):
            with pytest.raises(DomainError):
                simulate_phase_noise(n, 1)

    def test_traced_peak(self):
        # the 16 MB path and one round of at most _PHASOR_BLOCK angles; one
        # draw of 1.5 n angles would peak at 72.6 MiB
        tracemalloc.start()
        try:
            simulate_phase_noise(1_000_000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20


class TestErgodicAverages:
    @pytest.mark.parametrize(
        "path_fn",
        [
            lambda: simulate_gaussian(make_rect_band(0.1), 1_000_000, 11),
            lambda: simulate_onoff(1 / 16, 1_000_000, 11),
            lambda: simulate_phase_noise(1_000_000, 11),
        ],
        ids=["gaussian-band", "onoff", "phase"],
    )
    def test_power_time_average(self, path_fn):
        path = path_fn()
        assert np.mean(np.abs(path.values) ** 2) == pytest.approx(1.0, abs=0.01)


class TestTails:
    def test_closed_forms(self):
        assert rayleigh_band_model(0.1).tail(1.0) == pytest.approx(math.exp(-1), abs=1e-15)
        assert phase_noise_model().tail(0.5) == 1.0
        assert onoff_model(1 / 16).tail(1.0) == pytest.approx(
            0.5 * math.exp(-0.5), abs=1e-15
        )

    def test_guard(self):
        model = rayleigh_band_model(0.1)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                tail_probability_mc(model, bad, n_samples=16)

    @pytest.mark.parametrize("n_samples", [0, -5, 1000.0])
    def test_monte_carlo_needs_a_sample(self, n_samples):
        with pytest.raises(DomainError):
            tail_probability_mc(rayleigh_band_model(0.1), 1.0, n_samples=n_samples)

    @pytest.mark.parametrize(
        "model", [rayleigh_band_model(0.1), onoff_model(1 / 16)], ids=["rayleigh", "onoff"]
    )
    def test_monte_carlo_agreement_small(self, model):
        # quick 1e5-draw version; the acceptance suite reruns this at 1e6
        n = 100_000
        for ups in (0.5, 1.0, 2.0):
            p = model.tail(ups)
            p_hat = tail_probability_mc(model, ups, n_samples=n, seed=21)
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(p_hat - p) <= 3 * sigma + 1e-9

    def test_marginal_draw_laws(self):
        n = 50_000
        r = marginal_draws(rayleigh_band_model(0.2), n, 1)
        assert np.mean(np.abs(r) ** 2) == pytest.approx(1.0, abs=0.05)
        o = marginal_draws(onoff_model(0.1), n, 2)
        assert np.mean(np.abs(o) > 0) == pytest.approx(0.5, abs=0.02)
        assert np.mean(np.abs(o) ** 2) == pytest.approx(1.0, abs=0.05)
        u = marginal_draws(phase_noise_model(), n, 3)
        assert np.all(np.abs(u) == 1.0)


GAUSSIAN_MODELS = {"rayleigh": rayleigh_band_model(0.1), "onoff": onoff_model(1 / 16)}


class TestFrozenDraws:
    """The in-place Gaussian draws against the expressions they replaced:
    the same bits, and so the same tails."""

    @pytest.mark.parametrize("n", [1, 2, 7, 65537, 10**6])
    @pytest.mark.parametrize("law", sorted(GAUSSIAN_MODELS))
    def test_draws_and_tails(self, law, n):
        model = GAUSSIAN_MODELS[law]
        for seed in (0, 3, 2**64 - 1):
            rng = processes.stream_rng(seed, processes.STREAM_TAIL_MC)
            want = gaussian_marginal_draws(rng, law, n)
            got = marginal_draws(model, n, seed)
            assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
            for ups in (0.3, 1.0, 2.5):
                assert (tail_probability_mc(model, ups, n, seed)
                        == float(np.mean(np.abs(want) >= ups)))


class TestUnitTail:
    """The unit law's tail, returned without drawing, against the count over
    the draws it stands for."""

    @pytest.mark.parametrize("n", [1, 7, 65537])
    def test_is_the_count_over_the_draws(self, n):
        model = phase_noise_model()
        for seed in (0, 3, 2**64 - 1):
            moduli = np.abs(marginal_draws(model, n, seed))
            for ups in (1e-300, 0.5, 1.0, math.nextafter(1.0, 2.0), 2.5):
                p = tail_probability_mc(model, ups, n, seed)
                assert type(p) is float
                assert p == np.count_nonzero(moduli >= ups) / n

    def test_huge_count_draws_nothing(self):
        # 2**58 phasors would take 4 EiB; the tail needs none of them
        model = phase_noise_model()
        assert tail_probability_mc(model, 1.0, 2**58, 5) == 1.0
        assert tail_probability_mc(model, 2.0, 2**58, 5) == 0.0

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "1"], ids=repr)
    def test_refusals_in_order(self, bad):
        # threshold, then sample count, then seed, each with the text the
        # drawing route of the Gaussian laws gives
        shown = {-1: "-1", 2**64: "18446744073709551616", 1.5: "1.5", "1": "1"}[bad]
        count = f"Monte Carlo sample count must be an integer in [1, 2**59), got {shown}"
        seed = f"seed must be an integer in [0, 2**64), got {shown}"
        cases = [((1.0, bad, bad), count), ((1.0, 10, bad), seed)]
        if bad == -1:
            cases.append(((bad, bad, bad), "threshold must be finite and positive, got -1"))
        for model in (phase_noise_model(), rayleigh_band_model(0.1)):
            for args, text in cases:
                with pytest.raises(DomainError) as error:
                    tail_probability_mc(model, *args)
                assert str(error.value) == text


class TestTailMemory:
    @pytest.mark.parametrize("law", sorted(GAUSSIAN_MODELS))
    def test_traced_peak(self, law):
        # the 16 MB normals buffer is the draws; their moduli (8 MB) and
        # the 1 MB comparison come on top, and no complex temporary does
        tracemalloc.start()
        try:
            tail_probability_mc(GAUSSIAN_MODELS[law], 1.0, 1_000_000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 25 * 2**20


class TestIntegerArguments:
    def test_numpy_sample_count_gives_a_python_float(self):
        p = tail_probability_mc(rayleigh_band_model(0.1), 1.0, np.int64(1000), 2)
        assert type(p) is float
        assert p == tail_probability_mc(rayleigh_band_model(0.1), 1.0, 1000, 2)

    def test_numpy_seed_is_the_int_seed(self):
        model = onoff_model(1 / 16)
        assert np.array_equal(marginal_draws(model, 64, np.uint64(7)),
                              marginal_draws(model, 64, 7))

    @pytest.mark.parametrize("seed", [1.0, 1.5, np.float64(2.0), "1"])
    def test_seed_must_be_an_integer(self, seed):
        model = rayleigh_band_model(0.1)
        with pytest.raises(DomainError, match="seed must be an integer"):
            tail_probability_mc(model, 1.0, 10, seed)
        with pytest.raises(DomainError, match="seed must be an integer"):
            simulate_gaussian(model.spectrum, 8, seed)

    @pytest.mark.parametrize("n", [-1, 2.5, 2**59, "3"])
    def test_draw_count(self, n):
        for model in (*GAUSSIAN_MODELS.values(), phase_noise_model()):
            with pytest.raises(DomainError):
                marginal_draws(model, n, 0)

    def test_no_draws(self):
        for model in (*GAUSSIAN_MODELS.values(), phase_noise_model()):
            assert marginal_draws(model, 0, 0).shape == (0,)

    @pytest.mark.parametrize("n", [2.5, np.float64(4.0)])
    def test_path_length(self, n):
        with pytest.raises(DomainError, match="path length must be an integer"):
            simulate_phase_noise(n, 1)

    @pytest.mark.parametrize("m_max", [2.5, 1.0, None])
    def test_lag_count(self, m_max):
        with pytest.raises(DomainError, match="m_max must be an integer"):
            empirical_autocov(simulate_phase_noise(16, 1), m_max)

    # an int past the float range is shown in six digits, not its 401
    BIG_CALLS = {
        "path length": lambda big: simulate_phase_noise(big, 1),
        "gaussian path length": lambda big: simulate_model(rayleigh_band_model(0.1), -big, 1),
        "draw count": lambda big: marginal_draws(phase_noise_model(), big, 0),
        "seed": lambda big: processes.stream_rng(big, 0),
        "sample count": lambda big: tail_probability_mc(phase_noise_model(), 1.0, -big),
        "threshold": lambda big: tail_probability_mc(phase_noise_model(), -big),
        "lag": lambda big: empirical_autocov(simulate_phase_noise(16, 1), big),
        "negative lag": lambda big: empirical_autocov(simulate_phase_noise(16, 1), -big),
    }

    @pytest.mark.parametrize("call", BIG_CALLS.values(), ids=BIG_CALLS)
    def test_int_past_the_float_range_is_shown_short(self, call):
        with pytest.raises(DomainError, match=r"1\.000000e\+400") as error:
            call(10**400)
        assert len(str(error.value)) < 80


class TestEmpiricalAutocov:
    def test_constant_path_all_zero(self):
        from prelog_lab.processes import SamplePath

        # dyadic constant sums exactly, so the centered path is exactly zero
        path = SamplePath(np.full(64, 1.25 - 0.5j), 0)
        emp = empirical_autocov(path, 5)
        assert all(v == 0 for v in emp.values)

    def test_guards(self):
        path = simulate_phase_noise(16, 1)
        with pytest.raises(DomainError):
            empirical_autocov(path, 16)
        with pytest.raises(DomainError):
            empirical_autocov(path, -1)


class TestModelDispatch:
    def test_law_paths_need_their_process_spectrum(self):
        v = 1 / 0.3
        segments = [(-0.5, -0.45, v), (-0.45, -0.1, 0.0), (-0.1, 0.1, v),
                    (0.1, 0.45, 0.0), (0.45, 0.5, v)]
        uneven = SpectralDensity(segments, math.fsum((hi - lo) * v for lo, hi, v in segments))
        for law, S in [("unit", make_rect_band(0.1)), ("onoff", make_rect_band(0.1)),
                       ("onoff", make_rect_band(0.3)), ("onoff", uneven)]:
            with pytest.raises(DomainError):
                simulate_model(FadingModel("fake", S, law), 32, 1)

    def test_routes(self):
        phase = simulate_model(phase_noise_model(), 32, 1)
        assert np.array_equal(phase.values, simulate_phase_noise(32, 1).values)
        on = simulate_model(onoff_model(1 / 8), 32, 1)
        assert np.array_equal(on.values, simulate_onoff(1 / 8, 32, 1).values)
        g = simulate_model(rayleigh_band_model(0.2), 32, 1)
        assert np.array_equal(
            g.values, simulate_gaussian(make_rect_band(0.2), 32, 1).values
        )

    def test_the_law_tables_hold_the_same_laws(self):
        assert sorted(processes._SAMPLERS) == sorted(bounds.LAWS)

    # (module, function, model, call): the call reaches the function only
    # through the law row of the model
    ROUTED = [
        (processes, "simulate_gaussian", rayleigh_band_model(0.2),
         lambda m: simulate_model(m, 32, 1)),
        (processes, "simulate_onoff", onoff_model(1 / 8), lambda m: simulate_model(m, 32, 1)),
        (processes, "simulate_phase_noise", phase_noise_model(),
         lambda m: simulate_model(m, 32, 1)),
        (bounds, "optimize_upsilon", rayleigh_band_model(0.2),
         lambda m: bounds.bound_sweep(m, [1e2, 1e4])),
        (bounds, "coherent_avg_upper_bound", onoff_model(1 / 8),
         lambda m: bounds.bound_sweep(m, [1e2, 1e4])),
        (bounds, "phase_noise_lower_bound", phase_noise_model(),
         lambda m: bounds.bound_sweep(m, [1e2, 1e4])),
    ]

    @pytest.mark.parametrize("module, name, model, call", ROUTED,
                             ids=[r[1] for r in ROUTED])
    def test_a_law_row_calls_the_function_bound_on_its_module(
            self, monkeypatch, module, name, model, call):
        # a row that held the function object itself would skip a rebinding
        # such as the benchmark tracer's
        real, calls = getattr(module, name), []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        call(model)
        assert calls


# values whose bits are easy to lose: signed zeros, subnormals and extremes
_SPECIAL = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                     complex(5e-324, -5e-324), complex(-2.2250738585072014e-308, 1e-310),
                     complex(1.7976931348623157e308, -1e300), complex(1 / 3, -2 / 3)])
# samples no path holds
_NON_FINITE = [complex(1.0, math.inf), complex(-math.inf, -0.0), complex(math.nan, 2.0),
               complex(0.0, math.nan)]


class TestPathSamples:
    @pytest.mark.parametrize("bad", _NON_FINITE + [math.nan, -math.inf, np.float32("inf")],
                             ids=[*map(repr, _NON_FINITE), "nan", "-inf", "float32-inf"])
    def test_non_finite_sample_refused(self, bad):
        with pytest.raises(DomainError) as error:
            processes.SamplePath([1.0, bad], 3)
        assert str(error.value).startswith("path samples must be finite, got ")
        assert str(error.value).endswith(" at index 1")

    @pytest.mark.skipif(np.finfo(np.longdouble).maxexp <= 1024, reason="long double is double")
    def test_long_double_past_the_float_range_refused(self):
        # cast to complex128 it is inf, without numpy's overflow warning
        with pytest.raises(DomainError, match="path samples must be finite"):
            processes.SamplePath(np.array([np.longdouble(1e300) ** 2]), 3)

    @pytest.mark.parametrize("bad", [["a"], ["1.0"], [1.0, "2"], [b"1"], [object()], [None],
                                     [1j, None], [10**400], "abc"],
                             ids=["letter", "text", "mixed-text", "bytes", "object", "none",
                                  "mixed-none", "huge-int", "string"])
    def test_non_number_sample_refused(self, bad):
        with pytest.raises(DomainError):
            processes.SamplePath(bad, 3)

    def test_numbers_of_any_type_pass(self):
        from fractions import Fraction

        path = processes.SamplePath([True, 2, np.float32(0.5), Fraction(1, 4), 1j, 2**64], 3)
        assert path.values.tolist() == [1, 2, 0.5, 0.25, 1j, 2.0**64]

    @pytest.mark.parametrize("bad", _NON_FINITE, ids=repr)
    def test_non_finite_file_sample_refused(self, tmp_path, bad):
        fname = str(tmp_path / "p.bin")
        path_binary_elements([1j, 2.0 + 0j, bad], 7, fname)
        with pytest.raises(DomainError) as error:
            read_path_binary(fname)
        assert str(error.value) == f"path samples must be finite, got {bad} at index 2"


class TestPathFiles:
    def test_binary_round_trip(self, tmp_path):
        src = simulate_gaussian(make_rect_band(0.3), 777, 123)
        fname = str(tmp_path / "p.bin")
        write_path_binary(src, fname)
        back = read_path_binary(fname)
        assert back.n == src.n
        assert back.seed == src.seed
        assert np.array_equal(back.values, src.values)
        # bytes, not np.array_equal, which cannot see the sign of zero
        special = processes.SamplePath(_SPECIAL, 2**64 - 1)
        write_path_binary(special, fname)
        back = read_path_binary(fname)
        assert back.seed == special.seed
        assert back.values.tobytes() == special.values.tobytes()

    def test_binary_bytes_match_sample_writer(self, tmp_path):
        values = np.concatenate([_SPECIAL, simulate_gaussian(make_rect_band(0.3), 40, 5).values])
        for n, seed in ((1, 0), (values.size, 7), (values.size, 2**64 - 1)):
            path = processes.SamplePath(values[:n], seed)
            write_path_binary(path, str(tmp_path / "lib.bin"))
            path_binary_elements(path.values, seed, str(tmp_path / "ref.bin"))
            assert (tmp_path / "lib.bin").read_bytes() == (tmp_path / "ref.bin").read_bytes()
        # a strided path is written in sample order too
        path = processes.SamplePath(values[::3], 1)
        write_path_binary(path, str(tmp_path / "lib.bin"))
        path_binary_elements(path.values, 1, str(tmp_path / "ref.bin"))
        assert (tmp_path / "lib.bin").read_bytes() == (tmp_path / "ref.bin").read_bytes()

    def test_binary_truncation_detected(self, tmp_path):
        src = simulate_phase_noise(32, 1)
        fname = str(tmp_path / "p.bin")
        write_path_binary(src, fname)
        with open(fname, "r+b") as fh:
            fh.truncate(16 + 8 * 7)
        with pytest.raises(DomainError):
            read_path_binary(fname)

    @pytest.mark.parametrize("size, n, message", [
        (5, 32, "{}: truncated header"),
        (16, 0, "path must hold at least one sample"),
    ], ids=["header", "no sample"])
    def test_malformed_binary_file_is_named(self, tmp_path, size, n, message):
        fname = str(tmp_path / "p.bin")
        write_path_binary(simulate_phase_noise(32, 1), fname)
        with open(fname, "r+b") as fh:
            fh.write(n.to_bytes(8, "little"))
            fh.truncate(size)
        with pytest.raises(DomainError) as error:
            read_path_binary(fname)
        assert str(error.value) == message.format(fname)

    @pytest.mark.parametrize("rows, sizes", [(7, (1, 7, 8, 50)), (None, (16383, 16384, 16385))],
                             ids=["7-row blocks", "real blocks"])
    def test_csv_bytes_match_row_writer(self, tmp_path, monkeypatch, rows, sizes):
        # a block size that splits the rows unevenly, and the real one around
        # a block's end; values whose repr is easy to get wrong (signed
        # zeros, subnormals, extremes) at both ends of the path
        if rows is not None:
            monkeypatch.setattr(processes, "_CSV_ROWS", rows)
        values = simulate_gaussian(make_rect_band(0.3), max(sizes), 5).values.copy()
        values[:_SPECIAL.size] = _SPECIAL
        values[-_SPECIAL.size:] = _SPECIAL
        for n in sizes:
            path = processes.SamplePath(values[:n], 0)
            write_path_csv(path, str(tmp_path / "lib.csv"))
            path_csv_rows(path.values, str(tmp_path / "ref.csv"))
            assert (tmp_path / "lib.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_csv_layout(self, tmp_path):
        src = simulate_phase_noise(4, 2)
        fname = str(tmp_path / "p.csv")
        write_path_csv(src, fname)
        with open(fname) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "k,re,im"
        assert len(lines) == 5
        k, re, im = lines[4].split(",")
        assert k == "3"
        assert complex(float(re), float(im)) == complex(src.values[3])
