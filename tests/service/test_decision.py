"""The fitted routing decision surface: fit, choose, domains, parity.

Two of these are the ISSUE-9 acceptance properties:

* **monotone in size** — the fitted surface never picks a backend the
  model itself predicts strictly slower than an alternative, and along
  every measured size column of the checked-in matrix the pick for a
  larger graph is never a measured-slower backend than the smaller
  graph's pick (hypothesis over the feature space + a deterministic
  sweep over the checked-in grid);
* **parity** — fitted-vs-constant routing yields byte-identical
  colorings on the tier-1 stand-in dataset set.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import bench_path
from repro.service.decision import (
    DECISION_MODEL_VERSION,
    PARITY_NEUTRAL_BACKENDS,
    DecisionModel,
    constant_label,
    fit_decision_model,
    load_decision,
    training_agreement,
)
from repro.service.stats import FEATURE_NAMES, GraphFeatures

REPO_ROOT = Path(__file__).resolve().parents[2]


def features_for(num_vertices: int, mean_degree: float, skew: float) -> GraphFeatures:
    num_edges = max(1, int(num_vertices * mean_degree))
    return GraphFeatures(
        num_vertices=num_vertices,
        num_edges=num_edges,
        max_degree=max(1, int(mean_degree * skew)),
        mean_degree=mean_degree,
        degree_skew=skew,
        density=mean_degree / max(num_vertices - 1, 1),
    )


def synthetic_table():
    """A tiny hand-built sweep table with known fastest backends.

    ``microbatch`` wins below 1024 vertices (and is only measured
    there); ``native`` wins everywhere else; ``parallel`` is measured
    but never competitive.
    """
    points = []
    for size in (256, 1024, 4096, 16384):
        seconds = {
            "vectorized": size * 1.0e-6,
            "native": size * 2.5e-7,
            "hw": size * 5.0e-7,
            "parallel": size * 2.0e-6,
        }
        if size <= 1024:
            seconds["microbatch"] = size * 1.0e-7
        points.append(
            {
                "params": {"size": size, "skew": 0.3, "community": 0.0,
                           "density": 8, "seed": 0},
                "features": features_for(size, 8.0, 6.0).as_dict(),
                "seconds": seconds,
                "counters": {},
                "n_colors": 5,
                "n_colors_by_backend": {b: 5 for b in seconds},
                "fastest": min(seconds, key=seconds.get),
            }
        )
    return {
        "kind": "router-scenario-sweep",
        "version": 1,
        "backends": ["vectorized", "native", "parallel", "hw", "microbatch"],
        "software_tier": "native",
        "points": points,
    }


class TestFitAndChoose:
    def test_fit_reproduces_measured_winners(self):
        model = fit_decision_model(synthetic_table())
        assert model.choose(features_for(256, 8.0, 6.0)) == "microbatch"
        assert model.choose(features_for(16384, 8.0, 6.0)) == "native"
        assert model.meta["agreement"] == 1.0

    def test_domain_guard_keeps_microbatch_small(self):
        # microbatch was measured only up to 1024 vertices; one doubling
        # of margin is allowed, three are not — at 8192 vertices the
        # (extrapolated-fastest) microbatch surface is out of domain and
        # the in-domain native surface wins.
        model = fit_decision_model(synthetic_table())
        big = features_for(8192, 8.0, 6.0)
        assert not model.eligible(big, "microbatch")
        assert model.eligible(big, "native")
        assert model.choose(big) == "native"

    def test_far_beyond_every_domain_falls_back_to_all_candidates(self):
        # When no backend is in domain the guard cannot help; the model
        # still answers (extrapolating) rather than refusing to route.
        model = fit_decision_model(synthetic_table())
        huge = features_for(1 << 20, 8.0, 6.0)
        assert not any(model.eligible(huge, b) for b in model.backends)
        assert model.choose(huge) in model.backends

    def test_available_restricts_candidates(self):
        model = fit_decision_model(synthetic_table())
        pick = model.choose(
            features_for(256, 8.0, 6.0), available=["vectorized", "hw"]
        )
        assert pick == "hw"

    def test_choose_without_fitted_candidates_raises(self):
        model = fit_decision_model(synthetic_table())
        with pytest.raises(ValueError, match="no fitted backend"):
            model.choose(features_for(256, 8.0, 6.0), available=["gpu"])

    def test_predict_latency_matches_training_point(self):
        model = fit_decision_model(synthetic_table())
        predicted = model.predict_latency(features_for(4096, 8.0, 6.0), "native")
        assert predicted == pytest.approx(4096 * 2.5e-7, rel=0.05)

    def test_predict_unknown_backend_raises(self):
        model = fit_decision_model(synthetic_table())
        with pytest.raises(KeyError):
            model.predict_latency(features_for(256, 8.0, 6.0), "gpu")

    def test_training_agreement_scores_parity_neutral_pool(self):
        table = synthetic_table()
        model = fit_decision_model(table)
        assert training_agreement(model, table) == 1.0

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            fit_decision_model({"backends": ["vectorized"], "points": []})


class TestSerialisation:
    def test_round_trip(self):
        model = fit_decision_model(synthetic_table())
        clone = DecisionModel.from_dict(model.to_dict())
        f = features_for(777, 8.0, 6.0)
        assert clone.choose(f) == model.choose(f)
        assert clone.backends == model.backends
        assert clone.size_ranges == model.size_ranges

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError, match="not a decision model"):
            DecisionModel.from_dict({"kind": "something-else"})

    def test_wrong_version_rejected(self):
        doc = fit_decision_model(synthetic_table()).to_dict()
        doc["version"] = DECISION_MODEL_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            DecisionModel.from_dict(doc)

    def test_load_decision_accepts_all_three_shapes(self, tmp_path):
        table = synthetic_table()
        model = fit_decision_model(table)
        f = features_for(256, 8.0, 6.0)

        model_path = tmp_path / "model.json"
        model.save(model_path)
        assert load_decision(model_path).choose(f) == model.choose(f)

        table_path = tmp_path / "table.json"
        table_path.write_text(json.dumps(table))
        assert load_decision(table_path).choose(f) == model.choose(f)

        bundle_path = tmp_path / "bench.json"
        bundle_path.write_text(json.dumps({"matrix": table}))
        assert load_decision(bundle_path).choose(f) == model.choose(f)

    def test_load_decision_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"kind": "mystery"}))
        with pytest.raises(ValueError):
            load_decision(path)


class TestConstantLabel:
    """The hand-set policy replicated on features (the bench reference)."""

    KW = dict(small_vertices=512, large_vertices=50_000,
              skew_threshold=8.0, software_tier="native")

    def test_small_batches(self):
        assert constant_label(features_for(256, 8.0, 2.0), **self.KW) == "microbatch"

    def test_large_skewed_goes_parallel(self):
        f = features_for(100_000, 8.0, 50.0)
        assert constant_label(f, **self.KW) == "parallel"

    def test_large_regular_goes_hw(self):
        f = features_for(100_000, 4.0, 1.5)
        assert constant_label(f, **self.KW) == "hw"

    def test_midsize_takes_the_tier(self):
        assert constant_label(features_for(5000, 8.0, 2.0), **self.KW) == "native"


# ----------------------------------------------------------------------
# The checked-in matrix (BENCH_router.json) and the fitted acceptance
# properties over it
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def checked_in_matrix():
    assert bench_path("router") == REPO_ROOT / "BENCH_router.json"
    assert bench_path("router").exists(), (
        "run benchmarks/bench_router.py first"
    )
    return json.loads(bench_path("router").read_text())["matrix"]


@pytest.fixture(scope="module")
def checked_in_model(checked_in_matrix):
    return fit_decision_model(checked_in_matrix)


feature_points = st.builds(
    features_for,
    st.integers(min_value=64, max_value=1 << 20),
    st.floats(min_value=1.0, max_value=32.0),
    st.floats(min_value=1.0, max_value=200.0),
)


class TestMonotoneInSize:
    @settings(max_examples=80, deadline=None)
    @given(f=feature_points)
    def test_choose_is_argmin_of_predicted_latency(self, checked_in_model, f):
        """The pick is never one the model predicts strictly slower."""
        model = checked_in_model
        pick = model.choose(f)
        pool = [b for b in model.backends if model.eligible(f, b)] or list(
            model.backends
        )
        best = min(pool, key=lambda b: model.predict_latency(f, b))
        assert model.predict_latency(f, pick) <= (
            model.predict_latency(f, best) * (1 + 1e-9)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        n_small=st.integers(min_value=64, max_value=1 << 19),
        growth=st.integers(min_value=2, max_value=32),
        degree=st.floats(min_value=1.0, max_value=32.0),
        skew=st.floats(min_value=1.0, max_value=200.0),
    )
    def test_larger_graph_never_picks_predicted_slower_backend(
        self, checked_in_model, n_small, growth, degree, skew
    ):
        """Monotone in size: with otherwise-equal features, the pick for
        the larger graph is never a backend the model predicts strictly
        slower than the smaller graph's pick at that larger size."""
        model = checked_in_model
        f_small = features_for(n_small, degree, skew)
        f_large = features_for(n_small * growth, degree, skew)
        pick_small = model.choose(f_small)
        pick_large = model.choose(f_large)
        if not model.eligible(f_large, pick_small):
            return  # the domain guard forbids it there, by design
        assert model.predict_latency(f_large, pick_large) <= (
            model.predict_latency(f_large, pick_small) * (1 + 1e-9)
        )

    def test_measured_size_columns_are_monotone(
        self, checked_in_matrix, checked_in_model
    ):
        """Deterministic version on real measurements: walking up every
        size column of the checked-in grid, the fitted pick is never a
        backend measured slower (beyond timing noise) than the previous
        pick at the same point."""
        model = checked_in_model
        columns = {}
        for p in checked_in_matrix["points"]:
            key = (p["params"]["skew"], p["params"]["community"],
                   p["params"]["density"])
            columns.setdefault(key, []).append(p)
        assert columns
        for column in columns.values():
            column.sort(key=lambda p: p["params"]["size"])
            previous_pick = None
            for p in column:
                seconds = p["seconds"]
                neutral = [
                    b for b in seconds if b in PARITY_NEUTRAL_BACKENDS
                ]
                pick = model.choose(
                    GraphFeatures.from_dict(p["features"]), available=neutral
                )
                if previous_pick in seconds:
                    assert seconds[pick] <= seconds[previous_pick] * 1.10, (
                        f"fitted pick {pick!r} measured slower than "
                        f"{previous_pick!r} at {p['params']}"
                    )
                previous_pick = pick


class TestTier1Parity:
    def test_fitted_vs_constant_identical_colorings_on_tier1_set(self):
        """Both routing policies must color every tier-1 stand-in
        byte-identically to a direct repro.color call."""
        from repro import color as direct_color
        from repro.experiments import DATASET_KEYS, load_dataset
        from repro.service import ColoringService, ServiceConfig

        graphs = [
            load_dataset(key, preprocessed=True) for key in DATASET_KEYS
        ]
        references = {
            g.name: direct_color(g, "bitwise").colors for g in graphs
        }
        for config in (
            ServiceConfig(
                router_table=bench_path("router"), cache_capacity=0
            ),
            ServiceConfig(cache_capacity=0),
        ):
            with ColoringService(config) as svc:
                fitted = config.router_table is not None
                assert (
                    svc.status()["routing"]["policy"]
                    == ("fitted" if fitted else "constant")
                )
                for g in graphs:
                    result = svc.color(g)
                    assert np.array_equal(
                        result.colors, references[g.name]
                    ), f"routing changed the colors of {g.name}"
                if fitted:
                    assert (
                        svc.status()["routing"]["fitted"] >= len(graphs)
                    )
