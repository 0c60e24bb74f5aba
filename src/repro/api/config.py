"""Validating configuration builder: profiles, overrides, environment.

Before this layer existed, every deployment style configured Apophenia
its own way: standalone callers constructed :class:`ApopheniaConfig`
by keyword, the experiments harness had ``auto_config``, the service
read its knobs off the same dataclass, and one environment variable
was consulted ad hoc deep inside the mining code.
:func:`build_config` is now the *only* place the ambient environment is
read (the linter's RPL004 rule enforces this), with explicit layering
(lowest to highest precedence):

1. a named **profile** (:data:`PROFILES`) -- the base configuration;
2. keyword **overrides** -- what the calling code decides;
3. the **environment** -- ``REPRO_<FIELD>`` variables, one per
   :class:`ApopheniaConfig` field, so a deployment can retune any knob
   without a code change (environment beats code). ``REPRO_PROFILE``
   selects the profile itself when the caller does not. A ``REPRO_*``
   variable naming no field is ignored.

An explicit ``config=`` is authoritative: the environment is not
consulted at all.

The result is validated (:meth:`ApopheniaConfig.validate`) before any
backend is built, so misconfiguration fails at the client surface with a
field-naming error instead of deep inside a mining job.
"""

import os
import typing
from dataclasses import fields

from repro.core.processor import ApopheniaConfig
from repro.registry import Registry

#: Prefix of every configuration environment variable.
ENV_PREFIX = "REPRO_"

#: Environment variable naming the profile to start from.
PROFILE_ENV_VAR = ENV_PREFIX + "PROFILE"

#: Default profile when neither the caller nor the environment chooses.
DEFAULT_PROFILE = "paper-default"

#: Named base configurations (see :mod:`repro.registry`). Values are
#: frozen :class:`ApopheniaConfig` instances, so sharing them is safe.
PROFILES = Registry("config profile", {
    # The artifact's defaults: the configuration every paper experiment
    # starts from (``-lg:auto_trace:*`` flag defaults).
    "paper-default": ApopheniaConfig(),
    # CI-scale: the full multi-scale schedule on reduced streams (ruler
    # periods of 64 triggers ending at a full-buffer slice), with the
    # job-completion model shrunk to match -- the sizing the repo's
    # reduced-scale suites and the multi-tenant harness use.
    "reduced-scale": ApopheniaConfig(
        batchsize=1000,
        multi_scale_factor=25,
        job_base_latency_ops=10,
        initial_ingest_margin_ops=20,
    ),
    # Multi-tenant service: a consolidated shared memo sized for a whole
    # tenant population, with size-aware admission so one giant window
    # cannot displace many tenants' working sets.
    "service": ApopheniaConfig(
        shared_memo_capacity=1024,
        shared_memo_token_budget=1_000_000,
    ),
    # Chaos: reduced-scale sizing with a fixed-seed fault plan injecting
    # mining failures and delayed completions. The spec string (see
    # :func:`repro.faults.parse_fault_spec`) keeps the profile
    # frozen-dataclass-safe; the seed makes every chaos run
    # reproducible bit-for-bit. Tune via ``REPRO_FAULT_PLAN``.
    "chaos": ApopheniaConfig(
        batchsize=1000,
        multi_scale_factor=25,
        job_base_latency_ops=10,
        initial_ingest_margin_ops=20,
        fault_plan=(
            "seed=1234,mining_failure_rate=0.1,mining_delay_rate=0.1,"
            "mining_delay_ops=50"
        ),
        fault_quarantine_threshold=4,
    ),
})


def profile_names():
    """Sorted names of every registered configuration profile."""
    return PROFILES.names()


def _parse_env_value(field, raw):
    """Parse one environment string according to the field's type."""
    ftype = field.type
    origin = typing.get_origin(ftype)
    if origin is typing.Union:  # Optional[X]
        args = [a for a in typing.get_args(ftype) if a is not type(None)]
        if raw.strip().lower() in ("", "none", "null"):
            return None
        ftype = args[0] if args else str
    if ftype is int:
        return int(raw)
    if ftype is float:
        return float(raw)
    return raw  # str and the fault_plan object field


def env_overrides(env=None):
    """``{field: value}`` read from ``REPRO_<FIELD>`` variables.

    ``env`` defaults to ``os.environ``; pass a mapping for tests. Unknown
    ``REPRO_*`` variables are ignored (other subsystems own some, e.g.
    ``REPRO_PROFILE`` is consumed by :func:`build_config` itself).
    """
    env = os.environ if env is None else env
    overrides = {}
    for field in fields(ApopheniaConfig):
        raw = env.get(ENV_PREFIX + field.name.upper())
        if raw is None:
            continue
        try:
            overrides[field.name] = _parse_env_value(field, raw)
        except ValueError as exc:
            raise ValueError(
                f"bad value for {ENV_PREFIX + field.name.upper()}: "
                f"{raw!r} ({exc})"
            ) from None
    return overrides


def build_config(profile=None, config=None, env=None, **overrides):
    """Build a validated :class:`ApopheniaConfig`.

    Parameters
    ----------
    profile:
        Name from :data:`PROFILES` to start from. ``None`` consults
        ``REPRO_PROFILE``, then falls back to ``paper-default``. Ignored
        when ``config`` is given (an explicit config *is* the base).
    config:
        An existing :class:`ApopheniaConfig` to use as the base. An
        explicit config is authoritative: it is validated and returned
        (plus keyword overrides) with **no environment layering** -- it
        is the escape hatch for callers that must pin every knob
        (parity tests, benchmarks).
    env:
        Mapping consulted for ``REPRO_*`` variables; defaults to
        ``os.environ``. On profile-based builds environment values have
        the highest precedence.
    overrides:
        Field overrides applied on top of the base, below the
        environment.
    """
    if config is not None:
        return validate_config(
            config.with_overrides(**overrides) if overrides else config
        )
    environ = os.environ if env is None else env
    name = profile or environ.get(PROFILE_ENV_VAR) or DEFAULT_PROFILE
    base = PROFILES[name]
    if overrides:
        base = base.with_overrides(**overrides)
    layered = env_overrides(env)
    if layered:
        base = base.with_overrides(**layered)
    return validate_config(base)


def validate_config(config):
    """Validate ``config`` (see :meth:`ApopheniaConfig.validate`)."""
    return config.validate()


__all__ = [
    "DEFAULT_PROFILE",
    "ENV_PREFIX",
    "PROFILES",
    "PROFILE_ENV_VAR",
    "build_config",
    "env_overrides",
    "profile_names",
    "validate_config",
]
