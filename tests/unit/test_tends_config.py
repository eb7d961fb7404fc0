"""TendsConfig validation and override mechanics."""

import pytest

from repro.core.config import TendsConfig
from repro.exceptions import ConfigurationError


class TestDefaults:
    def test_paper_defaults(self):
        config = TendsConfig()
        assert config.mi_kind == "infection"
        assert config.threshold is None
        assert config.threshold_scale == 1.0
        assert config.search_strategy == "greedy-rescoring"
        assert config.max_combination_size == 1
        assert config.max_candidates is None
        assert config.min_improvement == 0.0

    def test_executor_defaults_defer_resolution(self):
        # None = "resolve at fit time" (env fallbacks, then serial), so a
        # pickled config never bakes in one machine's CPU count.
        config = TendsConfig()
        assert config.executor is None
        assert config.n_jobs is None
        assert config.chunk_size is None


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mi_kind": "magic"},
            {"search_strategy": "exhaustive"},
            {"max_combination_size": 0},
            {"threshold_scale": -1.0},
            {"min_improvement": -0.1},
            {"threshold": -0.5},
            {"max_candidates": 0},
            {"executor": "gpu"},
            {"n_jobs": 0},
            {"n_jobs": -2},
            {"chunk_size": 0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            TendsConfig(**kwargs)

    def test_retired_thread_executor_names_the_backends(self):
        with pytest.raises(ConfigurationError, match="'serial', 'process'"):
            TendsConfig(executor="thread")

    def test_accepts_executor_settings(self):
        config = TendsConfig(executor="process", n_jobs=-1, chunk_size=16)
        assert config.executor == "process"
        assert config.n_jobs == -1
        assert config.chunk_size == 16

    def test_accepts_traditional_mi(self):
        assert TendsConfig(mi_kind="traditional").mi_kind == "traditional"

    def test_accepts_explicit_threshold(self):
        assert TendsConfig(threshold=0.02).threshold == 0.02


class TestOverrides:
    def test_with_overrides_returns_new_instance(self):
        base = TendsConfig()
        changed = base.with_overrides(threshold_scale=0.5)
        assert changed.threshold_scale == 0.5
        assert base.threshold_scale == 1.0

    def test_override_validation_applies(self):
        with pytest.raises(ConfigurationError):
            TendsConfig().with_overrides(mi_kind="nope")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            TendsConfig().mi_kind = "traditional"  # type: ignore[misc]
