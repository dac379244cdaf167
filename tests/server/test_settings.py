"""Settings.from_env: REPRO_* parsing and the ConfigError matrix."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.settings import SETTINGS, Settings


class TestOverrides:
    def test_no_env_gives_defaults(self) -> None:
        assert Settings.from_env({}) == Settings()

    def test_int_and_float_fields_parse(self) -> None:
        settings = Settings.from_env({
            "REPRO_MAX_SESSIONS": "2",
            "REPRO_LOCK_TIMEOUT": "0.25",
            "REPRO_MAX_MESSAGE_BYTES": "65536",
            "REPRO_CLIENT_BACKOFF_BASE": "0.001",
        })
        assert settings.max_sessions == 2
        assert settings.lock_timeout == 0.25
        assert settings.max_message_bytes == 65536
        assert settings.client_backoff_base == 0.001

    def test_unknown_variables_ignored(self) -> None:
        assert Settings.from_env({"REPRO_NO_SUCH_KNOB": "banana"}) == Settings()

    def test_zero_allowed_where_it_means_disabled(self) -> None:
        assert Settings.from_env({"REPRO_LOCK_TIMEOUT": "0"}).lock_timeout == 0


class TestConfigErrors:
    @pytest.mark.parametrize(
        ("var", "raw"),
        [
            ("REPRO_WAL_FLUSH_THRESHOLD", "four"),  # not an integer
            ("REPRO_WAL_FLUSH_THRESHOLD", "2.5"),   # int field, float value
            ("REPRO_LOCK_TIMEOUT", "fast"),         # not a number
            ("REPRO_MAX_QUEUE", ""),                # empty string
            ("REPRO_DEDUP_CACHE_SIZE", "1e3x"),     # trailing garbage
        ],
    )
    def test_malformed_value_raises_naming_the_variable(
        self, var: str, raw: str
    ) -> None:
        with pytest.raises(ConfigError) as excinfo:
            Settings.from_env({var: raw})
        assert var in str(excinfo.value)
        assert repr(raw) in str(excinfo.value)

    @pytest.mark.parametrize(
        ("var", "raw"),
        [
            ("REPRO_WAL_FLUSH_THRESHOLD", "0"),     # must be positive
            ("REPRO_MAX_QUEUE", "-1"),
            ("REPRO_CLIENT_POOL_SIZE", "0"),
            ("REPRO_MAX_MESSAGE_BYTES", "-4096"),
            ("REPRO_BREAKER_FAILURE_THRESHOLD", "0"),
        ],
    )
    def test_nonpositive_bound_raises(self, var: str, raw: str) -> None:
        with pytest.raises(ConfigError) as excinfo:
            Settings.from_env({var: raw})
        assert var in str(excinfo.value)

    @pytest.mark.parametrize(
        ("var", "raw"),
        [
            ("REPRO_LOCK_TIMEOUT", "-0.5"),         # timeouts may be 0, not < 0
            ("REPRO_CLIENT_BACKOFF_BASE", "-1"),
            ("REPRO_DRAIN_TIMEOUT", "-2"),
        ],
    )
    def test_negative_nonnegative_field_raises(self, var: str, raw: str) -> None:
        with pytest.raises(ConfigError) as excinfo:
            Settings.from_env({var: raw})
        assert var in str(excinfo.value)


class TestProcessDefaults:
    def test_module_singleton_is_a_settings(self) -> None:
        assert isinstance(SETTINGS, Settings)

    def test_replace_does_not_mutate_the_singleton(self) -> None:
        before = SETTINGS.lock_timeout
        tightened = SETTINGS.replace(lock_timeout=before + 1.0)
        assert tightened.lock_timeout == before + 1.0
        assert SETTINGS.lock_timeout == before
        assert tightened is not SETTINGS
