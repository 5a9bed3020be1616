"""Tests for HyQSatConfig defaults (the paper's settings)."""

import pytest

from repro.core import clause_queue, hyqsat
from repro.core.config import HyQSatConfig
from repro.ml.intervals import ConfidenceBands


def test_paper_defaults():
    config = HyQSatConfig()
    assert clause_queue.TOP_K == 30        # Section IV-A
    assert config.num_reads == 1           # one sample per call
    assert config.use_activity_queue       # Section IV-A on by default
    assert config.bands == ConfidenceBands()  # 4.5 / 8.0 partition
    assert hyqsat.STRATEGY_4_BUMP == 10.0  # Strategy 4's VSIDS bump
    assert hyqsat.STRATEGY_4_DECISIONS == 8


def test_all_strategies_enabled_by_default():
    config = HyQSatConfig()
    assert config.enable_strategy_1
    assert config.enable_strategy_2
    assert config.enable_strategy_4


def test_bands_are_per_instance():
    a = HyQSatConfig()
    b = HyQSatConfig(bands=ConfidenceBands(t_sat=1.0, t_unsat=2.0))
    assert a.bands != b.bands
    assert HyQSatConfig().bands == a.bands


def test_warmup_override():
    assert HyQSatConfig(warmup_iterations=0).warmup_iterations == 0
    assert HyQSatConfig().warmup_iterations is None


def test_hot_path_defaults():
    assert HyQSatConfig().frontend_cache_size == 64


def test_frontend_cache_size_validated():
    assert HyQSatConfig(frontend_cache_size=0).frontend_cache_size == 0
    with pytest.raises(ValueError):
        HyQSatConfig(frontend_cache_size=-1)
