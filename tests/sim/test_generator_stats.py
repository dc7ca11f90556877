"""Statistical properties of every traffic generator and flow-size
sampler: seeded determinism, mean rates against closed forms, and
heavy-tail mass where the distribution has one.

Sample sizes and tolerances are chosen so the checks are robust (the
seeds are fixed — these are regression tests of the samplers'
distributions, not flaky Monte Carlo)."""

import math
import random

import pytest

from repro.net.workload import (DATA_MINING_CDF, WEB_SEARCH_CDF,
                                make_size_sampler)
from repro.sim.events import Simulator
from repro.sim.generators import (BackloggedSource, CbrGenerator,
                                  EmpiricalCdfSampler, OnOffGenerator,
                                  ParetoSampler, PoissonGenerator)
from repro.sim.link import gbps
from repro.sim.packet import MTU_BYTES

RATE = gbps(1)
DURATION = 0.01
EXPECTED_PACKETS = RATE * DURATION / (MTU_BYTES * 8)


def _collect(make_generator, duration=DURATION):
    """Run one generator to ``duration``; returns arrival times."""
    sim = Simulator()
    times = []
    generator = make_generator(
        sim, lambda _fid, packet: times.append(sim.now))
    generator.start(0.0)
    sim.run_until(duration)
    return times


class TestCbr:
    def test_exact_rate_and_spacing(self):
        times = _collect(lambda sim, sink: CbrGenerator(
            sim, "f", sink, rate_bps=RATE, end_time=DURATION))
        assert len(times) == pytest.approx(EXPECTED_PACKETS, abs=1)
        gaps = {round(b - a, 12) for a, b in zip(times, times[1:])}
        assert len(gaps) == 1  # perfectly periodic

    def test_respects_end_time(self):
        times = _collect(lambda sim, sink: CbrGenerator(
            sim, "f", sink, rate_bps=RATE, end_time=DURATION / 2))
        assert max(times) < DURATION / 2

    def test_rejects_nonpositive_rate(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CbrGenerator(sim, "f", lambda *_: None, rate_bps=0)


class TestPoisson:
    def test_mean_rate_within_tolerance(self):
        times = _collect(lambda sim, sink: PoissonGenerator(
            sim, "f", sink, rate_bps=RATE, end_time=DURATION,
            rng=random.Random(7)))
        # ~833 arrivals expected; 3-sigma of a Poisson count is ~9%.
        assert len(times) == pytest.approx(EXPECTED_PACKETS, rel=0.12)

    def test_seeded_determinism(self):
        runs = [_collect(lambda sim, sink: PoissonGenerator(
            sim, "f", sink, rate_bps=RATE, end_time=DURATION,
            rng=random.Random(3))) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_interarrival_cv_is_exponential(self):
        times = _collect(lambda sim, sink: PoissonGenerator(
            sim, "f", sink, rate_bps=RATE, end_time=DURATION,
            rng=random.Random(1)))
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        # Exponential gaps: coefficient of variation 1.
        assert math.sqrt(var) / mean == pytest.approx(1.0, rel=0.2)


class TestOnOff:
    def test_long_run_rate_below_peak(self):
        times = _collect(lambda sim, sink: OnOffGenerator(
            sim, "f", sink, peak_rate_bps=RATE, on_seconds=5e-4,
            off_seconds=5e-4, end_time=DURATION,
            rng=random.Random(5)))
        # Duty cycle ~0.5: well below the peak count, well above zero.
        assert 0.2 * EXPECTED_PACKETS < len(times) \
            < 0.85 * EXPECTED_PACKETS

    def test_bursts_run_at_peak_rate(self):
        times = _collect(lambda sim, sink: OnOffGenerator(
            sim, "f", sink, peak_rate_bps=RATE, on_seconds=5e-4,
            off_seconds=5e-4, end_time=DURATION,
            rng=random.Random(5)))
        peak_gap = MTU_BYTES * 8 / RATE
        gaps = [b - a for a, b in zip(times, times[1:])]
        on_gaps = [g for g in gaps if g <= peak_gap * 1.0001]
        off_gaps = [g for g in gaps if g > peak_gap * 1.0001]
        assert on_gaps and off_gaps  # both regimes observed
        assert all(g == pytest.approx(peak_gap) for g in on_gaps)

    def test_seeded_determinism(self):
        runs = [_collect(lambda sim, sink: OnOffGenerator(
            sim, "f", sink, peak_rate_bps=RATE, on_seconds=1e-4,
            off_seconds=1e-4, end_time=DURATION,
            rng=random.Random(2))) for _ in range(2)]
        assert runs[0] == runs[1]


class TestBacklogged:
    def test_stays_topped_up(self):
        sim = Simulator()
        queue = []
        source = BackloggedSource(sim, "f", lambda _f, p: queue.append(p),
                                  depth=4)
        source.start(0.0)
        sim.run_until(1e-6)
        assert len(queue) == 4
        source.on_departure()
        assert len(queue) == 5  # replaced immediately


def _sample_many(sampler, n=20_000):
    return [sampler.sample() for _ in range(n)]


class TestEmpiricalCdfSampler:
    @pytest.mark.parametrize("cdf", [WEB_SEARCH_CDF, DATA_MINING_CDF])
    def test_sample_mean_matches_closed_form(self, cdf):
        sampler = EmpiricalCdfSampler(cdf, rng=random.Random(11))
        samples = _sample_many(sampler)
        assert sum(samples) / len(samples) == pytest.approx(
            sampler.mean_bytes, rel=0.25)  # heavy tail: loose mean

    @pytest.mark.parametrize("cdf", [WEB_SEARCH_CDF, DATA_MINING_CDF])
    def test_tail_mass_matches_closed_form(self, cdf):
        sampler = EmpiricalCdfSampler(cdf, rng=random.Random(13))
        samples = _sample_many(sampler)
        # At a table point the interpolated CDF is the table's value.
        for threshold, cumulative in (cdf[1], cdf[-3]):
            expected = 1.0 - cumulative
            observed = sum(s > threshold for s in samples) / len(samples)
            assert observed == pytest.approx(expected, abs=0.01)

    def test_support_stays_within_table(self):
        sampler = EmpiricalCdfSampler(WEB_SEARCH_CDF,
                                      rng=random.Random(17))
        samples = _sample_many(sampler, n=5000)
        assert min(samples) >= WEB_SEARCH_CDF[0][0]
        assert max(samples) <= WEB_SEARCH_CDF[-1][0]

    def test_atom_at_first_point(self):
        sampler = EmpiricalCdfSampler(WEB_SEARCH_CDF,
                                      rng=random.Random(19))
        samples = _sample_many(sampler)
        first_size, first_prob = WEB_SEARCH_CDF[0]
        observed = sum(s == first_size for s in samples) / len(samples)
        assert observed == pytest.approx(first_prob, abs=0.005)

    def test_seeded_determinism(self):
        draws = [EmpiricalCdfSampler(
            WEB_SEARCH_CDF, rng=random.Random(23)).sample()
            for _ in range(4)]
        again = [EmpiricalCdfSampler(
            WEB_SEARCH_CDF, rng=random.Random(23)).sample()
            for _ in range(4)]
        assert draws == again

    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalCdfSampler([])
        with pytest.raises(ValueError):
            EmpiricalCdfSampler([(100, 0.5), (50, 1.0)])  # sizes down
        with pytest.raises(ValueError):
            EmpiricalCdfSampler([(50, 0.5), (100, 0.4)])  # probs down
        with pytest.raises(ValueError):
            EmpiricalCdfSampler([(50, 0.9)])  # doesn't reach 1.0
        with pytest.raises(ValueError):
            EmpiricalCdfSampler([(-1, 1.0)])


class TestParetoSampler:
    def test_sample_mean_matches_closed_form(self):
        sampler = ParetoSampler(alpha=1.5, scale_bytes=1000.0,
                                cap_bytes=1e6, rng=random.Random(29))
        samples = _sample_many(sampler, n=50_000)
        assert sum(samples) / len(samples) == pytest.approx(
            sampler.mean_bytes, rel=0.1)

    def test_tail_mass_matches_closed_form(self):
        sampler = ParetoSampler(alpha=1.5, scale_bytes=1000.0,
                                cap_bytes=1e6, rng=random.Random(31))
        samples = _sample_many(sampler)
        for threshold in (2000.0, 10_000.0, 100_000.0):
            expected = (1000.0 / threshold) ** 1.5
            observed = sum(s > threshold for s in samples) / len(samples)
            assert observed == pytest.approx(expected, abs=0.01)

    def test_alpha_one_mean_is_logarithmic(self):
        sampler = ParetoSampler(alpha=1.0, scale_bytes=1000.0,
                                cap_bytes=1e6)
        xm, cap = 1000.0, 1e6
        assert sampler.mean_bytes == pytest.approx(
            xm * math.log(cap / xm) + (xm / cap) * cap)

    def test_cap_and_floor(self):
        sampler = ParetoSampler(alpha=0.5, scale_bytes=1000.0,
                                cap_bytes=5000.0, rng=random.Random(37))
        samples = _sample_many(sampler, n=5000)
        assert max(samples) <= 5000
        assert min(samples) >= 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            ParetoSampler(alpha=0)
        with pytest.raises(ValueError):
            ParetoSampler(scale_bytes=0)
        with pytest.raises(ValueError):
            ParetoSampler(scale_bytes=1000, cap_bytes=500)


class TestWorkloadFactory:
    @pytest.mark.parametrize("name", ["web-search", "data-mining",
                                      "pareto"])
    def test_known_workloads(self, name):
        sampler = make_size_sampler(name, random.Random(0))
        assert sampler.mean_bytes > 0
        assert sampler.sample() >= 1

    def test_unknown_workload_rejected(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            make_size_sampler("mystery", random.Random(0))
