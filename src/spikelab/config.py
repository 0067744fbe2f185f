"""Flat key-value configuration files for models, grids and studies.

Format: one ``key = value`` pair per line, ``#`` comments, lists separated by
commas.  ``load_config`` parses each value by its key's parser in ``_KEYS``
as it reads the line, so a bad value fails as ``path:line: message`` whether
the command reads the key or not; reading a key that is not set fails naming
it.  Keys:

    lambda, beta                     spike intensity and reversion speed
    jump.kind                        mixture (default) | pointmass | empirical
    jump.weights, jump.rates,        signed exponential mixture; sign -1 means
    jump.signs                       the negated exponential component
    jump.size                        point-mass jump size (a one-atom empirical law)
    jump.samples                     inline empirical sizes (comma separated)
    jump.samples_file                file of empirical sizes, one per line
    cont.kind                        expou (default) | flat | twofactor
    cont.kappa, cont.vol,            exp-OU log reversion, volatility, initial
    cont.initial
    cont.level                       flat level
    cont.alpha, cont.sigma_s,        two-factor dynamics and flat initial
    cont.sigma_l, cont.rho,          forward-curve level
    cont.curve_level
    grid.n, grid.horizon             observation grid
    study.pairs                      lambda:beta pairs, comma separated
"""

from __future__ import annotations

import warnings
from typing import Tuple

import numpy as np

from .model import Empirical, ExpOU, Flat, ForwardCurve, GridSpec, JumpLaw, ModelSpec
from .model import SignedExponentialMixture, SpikeParams, TwoFactorDynamics, TwoFactorParams

__all__ = [
    "ConfigError",
    "load_config",
    "load_floats",
    "build_grid",
    "build_jump_law",
    "build_spike_params",
    "build_continuous",
    "build_model",
]


class ConfigError(ValueError):
    pass


class _Config(dict):
    """A config's parsed values; reading a key that is not set raises the ConfigError naming it."""

    def __missing__(self, key):
        raise ConfigError(f"missing required config key {key!r}")


def _number(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"bad number for {key!r}: {text!r}") from None


def _integer(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"bad integer for {key!r}: {text!r}") from None


def _numbers(key: str, text: str) -> Tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"bad numeric list {text!r}") from None


def _pairs(key: str, text: str) -> Tuple[Tuple[float, float], ...]:
    """'10:200, 10:2000' -> ((10.0, 200.0), (10.0, 2000.0))."""
    pairs = []
    for chunk in filter(None, (part.strip() for part in text.split(","))):
        lam, colon, beta = chunk.partition(":")
        if not colon:
            raise ConfigError(f"bad study pair {chunk!r}; expected 'lambda:beta'")
        try:
            pairs.append((float(lam), float(beta)))
        except ValueError:
            raise ConfigError(f"bad study pair {chunk!r}") from None
    if not pairs:
        raise ConfigError(f"{key} is empty")
    return tuple(pairs)


# the values each kind key takes
_KINDS = {"jump.kind": ("mixture", "pointmass", "empirical"), "cont.kind": ("expou", "flat", "twofactor")}


def _kind(key: str, text: str) -> str:
    kind = text.lower()
    if kind not in _KINDS[key]:
        raise ConfigError(f"unknown {key} {kind!r}")
    return kind


# every key and the parser of its value
_KEYS = {
    **dict.fromkeys(("lambda", "beta", "jump.size", "grid.horizon"), _number),
    **dict.fromkeys(("cont.kappa", "cont.vol", "cont.initial", "cont.level", "cont.alpha"), _number),
    **dict.fromkeys(("cont.sigma_s", "cont.sigma_l", "cont.rho", "cont.curve_level"), _number),
    **dict.fromkeys(("jump.weights", "jump.rates", "jump.signs", "jump.samples"), _numbers),
    **dict.fromkeys(_KINDS, _kind),
    "jump.samples_file": lambda key, text: text,
    "grid.n": _integer,
    "study.pairs": _pairs,
}


def load_config(path: str) -> _Config:
    """The parsed values of a config file, each by its key's parser (see the module docstring)."""
    values = _Config()
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _KEYS[key](key, text)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return values


def load_floats(path: str) -> np.ndarray:
    """The finite numbers of a text file, one a line; a bad or empty file raises a ConfigError naming it."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # numpy's note on an empty file
            values = np.loadtxt(path, ndmin=1)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if values.ndim != 1 or values.size == 0:
        raise ConfigError(f"{path}: expected one number a line and at least one line")
    finite = np.isfinite(values)
    if not finite.all():
        raise ConfigError(f"{path}: numbers must be finite, got {values[~finite][0]}")
    return values


def build_grid(cfg: _Config) -> GridSpec:
    return GridSpec(n=cfg["grid.n"], horizon=cfg.get("grid.horizon", 1.0))


def build_jump_law(cfg: _Config) -> JumpLaw:
    kind = cfg.get("jump.kind", "mixture")
    if kind == "mixture":
        return SignedExponentialMixture(cfg["jump.weights"], cfg["jump.rates"], cfg["jump.signs"])
    if kind == "pointmass":
        return Empirical([cfg["jump.size"]])
    if "jump.samples_file" in cfg:
        return Empirical(load_floats(cfg["jump.samples_file"]))
    if "jump.samples" in cfg:
        return Empirical(cfg["jump.samples"])
    raise ConfigError("empirical law needs jump.samples or jump.samples_file")


def build_spike_params(cfg: _Config) -> SpikeParams:
    return SpikeParams(intensity=cfg["lambda"], reversion=cfg["beta"], law=build_jump_law(cfg))


def build_continuous(cfg: _Config):
    kind = cfg.get("cont.kind", "expou")
    if kind == "expou":
        return ExpOU(reversion=cfg["cont.kappa"], vol=cfg["cont.vol"], initial=cfg.get("cont.initial", 1.0))
    if kind == "flat":
        return Flat(level=cfg.get("cont.level", 0.0))
    params = TwoFactorParams(
        alpha=cfg["cont.alpha"], sigma_s=cfg["cont.sigma_s"], sigma_l=cfg["cont.sigma_l"], rho=cfg["cont.rho"]
    )
    grid = build_grid(cfg)
    return TwoFactorDynamics(params, ForwardCurve.flat(cfg.get("cont.curve_level", 1.0), grid.horizon))


def build_model(cfg: _Config) -> ModelSpec:
    return ModelSpec(continuous=build_continuous(cfg), spikes=build_spike_params(cfg))
