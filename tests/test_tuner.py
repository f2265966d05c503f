"""Random-search tuner: parameter draws, scoring, importance decomposition,
and the JSON-lines history it writes."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duss import tuner as tn
from duss.codec import Codebook, CodecConfig, RvqCodec, TokenSequence
from duss.errors import ValidationError
from duss.sampler import SamplingParams

from conftest import FRAME_RATE


def stop_model(context):
    """Logit source that always ends generation immediately."""
    return np.array([-50.0, -50.0, 0.0])


def inside(space, params):
    """Whether params lie in the closed ranges of space."""
    return (space.k_range[0] <= params.k <= space.k_range[1]
            and space.p_range[0] <= params.p <= space.p_range[1]
            and space.temp_range[0] <= params.temperature <= space.temp_range[1])


class ConstantScorer:
    def score(self, generated, ctx):
        return 1.0


class SyntheticScorer:
    """Separable objective with optimum at tau=0.4, p=0.5, k=50."""

    def score(self, generated, ctx):
        p = ctx.params
        return (-(p.temperature - 0.4) ** 2
                - 0.1 * (p.p - 0.5) ** 2
                - 0.001 * (p.k - 50) ** 2)


class TauOnlyScorer:
    def score(self, generated, ctx):
        return -(ctx.params.temperature - 0.4) ** 2


# The k sub-range over which the synthetic objective is temperature-dominated:
# the tau term spans 0.36 and the k term only 0.001 * 10^2 = 0.1 here, whereas
# over the full 5..300 range the k term spans 62.5 and swamps everything.
NARROW_SPACE = tn.SearchSpace(k_range=(40, 60))


class TestSearchSpace:
    def test_default_matches_search_ranges(self):
        space = tn.SearchSpace()
        assert space.k_range == (5, 300)
        assert space.p_range == (0.1, 1.0)
        assert space.temp_range == (0.1, 1.0)

    def test_reduced_k_range_expressible(self):
        space = tn.SearchSpace(k_range=(5, 200))
        rng = np.random.default_rng(0)
        ks = {tn.sample_params(space, rng).k for _ in range(4000)}
        assert min(ks) == 5 and max(ks) == 200

    def test_contains(self):
        """Every draw lies in the closed ranges, both k bounds included."""
        space = tn.SearchSpace(k_range=(10, 20))
        rng = np.random.default_rng(1)
        draws = [tn.sample_params(space, rng) for _ in range(500)]
        assert {d.k for d in draws} == set(range(10, 21))
        assert all(inside(space, d) for d in draws)

    @pytest.mark.parametrize("kwargs", [
        dict(k_range=(0, 10)),
        dict(k_range=(10, 5)),
        dict(p_range=(0.0, 1.0)),
        dict(p_range=(0.5, 0.2)),
        dict(temp_range=(0.0, 1.0)),
        dict(temp_range=(0.1, math.inf)),
        dict(k_range=(5, 2 ** 63)),
    ])
    def test_invalid_ranges(self, kwargs):
        with pytest.raises(ValidationError):
            tn.SearchSpace(**kwargs)

    def test_widest_k_range_draws(self):
        """k is drawn as an int64, so the widest range ends at 2**63 - 1."""
        space = tn.SearchSpace(k_range=(2 ** 63 - 2, 2 ** 63 - 1))
        params = tn.sample_params(space, np.random.default_rng(0))
        assert inside(space, params)


class TestTune:
    def test_constant_scorer_best_is_first(self):
        hist = tn.tune(tn.SearchSpace(), ConstantScorer(), stop_model, 1,
                       n_trials=10, seed=0)
        assert all(t.score == 1.0 for t in hist.trials)
        assert hist.best == 0

    def test_bit_identical_histories(self):
        kwargs = dict(space=NARROW_SPACE, scorer=SyntheticScorer(),
                      model=stop_model, dev_count=2, n_trials=30, seed=7)
        a = tn.tune(**kwargs)
        b = tn.tune(**kwargs)
        assert a.best == b.best
        for ta, tb in zip(a.trials, b.trials):
            assert ta == tb

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_sampled_params_inside_space(self, seed):
        space = tn.SearchSpace(k_range=(3, 17), p_range=(0.2, 0.9),
                               temp_range=(0.3, 0.7))
        rng = np.random.default_rng(seed)
        for _ in range(20):
            assert inside(space, tn.sample_params(space, rng))

    def test_recovers_temperature_optimum(self):
        """500 random trials on the temperature-dominated space land the best
        trial's tau within 0.05 of the analytic optimum."""
        hist = tn.tune(NARROW_SPACE, SyntheticScorer(), stop_model, 1,
                       n_trials=500, seed=0)
        assert abs(hist.best_trial.params.temperature - 0.4) <= 0.05

    def test_nonfinite_score_flagged(self):
        class Poison:
            """NaN on the second of one generation per trial, i.e. trial 1."""
            calls = 0

            def score(self, generated, ctx):
                self.calls += 1
                return math.nan if self.calls == 2 else 0.5

        hist = tn.tune(tn.SearchSpace(), Poison(), stop_model, 1,
                       n_trials=3, seed=1)
        assert hist.trials[1].flagged
        assert hist.trials[1].score == -math.inf
        assert not hist.trials[0].flagged
        assert hist.best != 1

    def test_score_is_mean_over_contexts(self):
        class PerGeneration:
            """1, 2, 6 on a trial's three generations, in order."""
            calls = 0

            def score(self, generated, ctx):
                self.calls += 1
                return (1.0, 2.0, 6.0)[(self.calls - 1) % 3]

        hist = tn.tune(tn.SearchSpace(), PerGeneration(), stop_model, 3,
                       n_trials=2, seed=0)
        assert hist.trials[0].score == pytest.approx(3.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            tn.tune(tn.SearchSpace(), ConstantScorer(), stop_model, 1,
                    n_trials=0, seed=0)
        with pytest.raises(ValidationError):
            tn.tune(tn.SearchSpace(), ConstantScorer(), stop_model, 0,
                    n_trials=1, seed=0)


class TestTuningHistory:
    def test_best_attains_max_earliest(self):
        params = SamplingParams(k=5, p=0.5, temperature=0.5)
        trials = [tn.Trial(index=i, params=params, score=s, seed=i)
                  for i, s in enumerate([0.3, 0.9, 0.9, 0.1])]
        hist = tn.TuningHistory(trials=trials)
        assert hist.best == 1
        assert hist.best_trial.score == 0.9

    def test_empty_history_rejected(self):
        with pytest.raises(ValidationError):
            tn.TuningHistory(trials=[])


class TestCentroidScorer:
    def _codec(self):
        vectors = np.array([[1.0, 2.0], [5.0, 5.0]])
        usage = np.array([4, 0], dtype=np.int64)
        cfg = CodecConfig(codebook_size=2, num_quantizers=1, feature_dim=2)
        return RvqCodec(config=cfg,
                        stages=[Codebook(vectors=vectors, usage_counts=usage)])

    def _ctx(self, natural):
        return tn.ScoreContext(params=SamplingParams(k=1, p=1.0, temperature=1.0),
                               natural=natural)

    def test_empty_sequence_penalized(self):
        scorer = tn.CentroidScorer(self._codec())
        seq = TokenSequence(tokens=np.zeros((1, 0), dtype=np.int64), vocab_size=2,
                            frame_rate=FRAME_RATE)
        assert scorer.score(seq, self._ctx(True)) == -tn.EMPTY_SEQUENCE_PENALTY

    def test_on_centroid_scores_zero(self):
        # all usage on code 0, so the centroid is exactly vectors[0]
        scorer = tn.CentroidScorer(self._codec())
        seq = TokenSequence(tokens=np.array([[0, 0, 0]]), vocab_size=2,
                            frame_rate=FRAME_RATE)
        assert scorer.score(seq, self._ctx(True)) == pytest.approx(0.0)

    def test_truncation_penalty_added(self):
        scorer = tn.CentroidScorer(self._codec())
        seq = TokenSequence(tokens=np.array([[0]]), vocab_size=2,
                            frame_rate=FRAME_RATE)
        natural = scorer.score(seq, self._ctx(True))
        truncated = scorer.score(seq, self._ctx(False))
        assert truncated == pytest.approx(natural - tn.TRUNCATION_PENALTY)

    def test_distance_from_centroid_lowers_score(self):
        scorer = tn.CentroidScorer(self._codec())
        near = TokenSequence(tokens=np.array([[0]]), vocab_size=2,
                             frame_rate=FRAME_RATE)
        far = TokenSequence(tokens=np.array([[1]]), vocab_size=2,
                            frame_rate=FRAME_RATE)
        assert scorer.score(near, self._ctx(True)) > scorer.score(far, self._ctx(True))


class TestParamImportance:
    def test_temperature_only_scorer(self):
        hist = tn.tune(tn.SearchSpace(), TauOnlyScorer(), stop_model, 1,
                       n_trials=200, seed=5)
        imp = tn.param_importance(hist)
        assert imp["temperature"] > 0.8
        assert imp["k"] < 0.1 and imp["p"] < 0.1
        assert sum(imp.values()) == pytest.approx(1.0)

    def test_noisy_temperature_scorer_ranks_temperature_first(self):
        class TauNoise:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def score(self, generated, ctx):
                return (-(ctx.params.temperature - 0.4) ** 2
                        + 1e-6 * self.rng.normal())

        for seed in (0, 1, 2):
            hist = tn.tune(tn.SearchSpace(), TauNoise(seed), stop_model, 1,
                           n_trials=200, seed=seed)
            imp = tn.param_importance(hist)
            assert max(imp, key=imp.get) == "temperature"

    def test_constant_scorer_all_zero(self):
        hist = tn.tune(tn.SearchSpace(), ConstantScorer(), stop_model, 1,
                       n_trials=25, seed=0)
        imp = tn.param_importance(hist)
        assert imp == {"k": 0.0, "p": 0.0, "temperature": 0.0}

    def test_synthetic_objective_ranking(self):
        """On the narrow space the analytic sensitivity order is
        temperature > k > p, and the decomposition reproduces it."""
        hist = tn.tune(NARROW_SPACE, SyntheticScorer(), stop_model, 1,
                       n_trials=500, seed=0)
        imp = tn.param_importance(hist)
        assert imp["temperature"] > imp["k"] > imp["p"]

    def test_too_few_trials_rejected(self):
        hist = tn.tune(tn.SearchSpace(), ConstantScorer(), stop_model, 1,
                       n_trials=5, seed=0)
        with pytest.raises(ValidationError, match="20"):
            tn.param_importance(hist, bins=10)

    def test_flagged_trials_excluded(self):
        class Poison:
            """inf on the first three trials, one generation each."""
            calls = 0

            def score(self, generated, ctx):
                self.calls += 1
                return math.inf if self.calls <= 3 else 0.5

        hist = tn.tune(tn.SearchSpace(), Poison(), stop_model, 1,
                       n_trials=25, seed=0)
        imp = tn.param_importance(hist, bins=10)
        assert imp == {"k": 0.0, "p": 0.0, "temperature": 0.0}


def history_rows(path):
    """The rows of a saved history, parsed as plain JSON."""
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def as_row(trial):
    return {"index": trial.index, "k": trial.params.k, "p": trial.params.p,
            "temperature": trial.params.temperature, "score": trial.score,
            "seed": trial.seed, "flagged": trial.flagged}


class TestHistoryIO:
    def test_round_trip(self, tmp_path):
        hist = tn.tune(NARROW_SPACE, SyntheticScorer(), stop_model, 2,
                       n_trials=12, seed=3)
        path = tmp_path / "history.jsonl"
        tn.save_history_jsonl(hist, path)
        rows = history_rows(path)
        assert rows == [as_row(t) for t in hist.trials]
        assert all(list(row) == list(as_row(hist.trials[0])) for row in rows)
        scores = [row["score"] for row in rows]
        assert scores.index(max(scores)) == hist.best

    def test_flagged_round_trip(self, tmp_path):
        class Poison:
            def score(self, generated, ctx):
                return math.nan

        hist = tn.tune(tn.SearchSpace(), Poison(), stop_model, 1,
                       n_trials=2, seed=0)
        path = tmp_path / "history.jsonl"
        tn.save_history_jsonl(hist, path)
        assert '"score": -Infinity' in path.read_text().splitlines()[0]
        rows = history_rows(path)
        assert rows == [as_row(t) for t in hist.trials]
        assert rows[0]["flagged"] is True
        assert rows[0]["score"] == -math.inf
