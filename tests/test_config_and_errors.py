"""Tests for configuration validation, the error hierarchy, and logging."""

import logging

import pytest

from repro import errors
from repro.config import ALSConfig, ExplorationConfig, TCNNConfig
from repro.core.als import REGULARIZATION
from repro.errors import ConfigError, ReproError
from repro.logging_util import configure_logging, get_logger


def test_every_error_derives_from_repro_error():
    error_classes = [
        getattr(errors, name)
        for name in dir(errors)
        if isinstance(getattr(errors, name), type)
        and issubclass(getattr(errors, name), Exception)
    ]
    for cls in error_classes:
        assert issubclass(cls, ReproError)


def test_als_config_defaults_and_validation():
    config = ALSConfig()
    assert config.rank == 5
    assert REGULARIZATION == pytest.approx(0.2)  # the paper's λ
    assert config.censored
    for kwargs in ({"rank": 0}, {"iterations": 0}):
        with pytest.raises(ConfigError):
            ALSConfig(**kwargs)


def test_exploration_config_validation():
    config = ExplorationConfig()
    assert config.batch_size >= 1
    for kwargs in ({"batch_size": 0}, {"timeout_alpha": 0.0}):
        with pytest.raises(ConfigError):
            ExplorationConfig(**kwargs)


def test_tcnn_config_defaults_match_paper():
    config = TCNNConfig()
    assert config.embedding_rank == 5
    assert config.dropout == pytest.approx(0.3)
    assert config.batch_size == 32
    assert config.max_epochs == 100
    assert config.convergence_window == 10
    assert config.convergence_threshold == pytest.approx(0.01)
    for kwargs in (
        {"embedding_rank": 0},
        {"dropout": 1.0},
        {"learning_rate": 0.0},
        {"batch_size": 0},
        {"max_epochs": 0},
    ):
        with pytest.raises(ConfigError):
            TCNNConfig(**kwargs)


def test_configs_are_frozen():
    config = ALSConfig()
    with pytest.raises(Exception):
        config.rank = 10


def test_get_logger_namespacing():
    assert get_logger("core.explorer").name == "repro.core.explorer"
    assert get_logger("repro.db").name == "repro.db"


def test_configure_logging_is_idempotent():
    logger = configure_logging(logging.DEBUG)
    handlers_before = len(logger.handlers)
    configure_logging(logging.DEBUG)
    assert len(logger.handlers) == handlers_before
    assert logger.level == logging.DEBUG
