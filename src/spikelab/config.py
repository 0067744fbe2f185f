"""Flat key-value configuration files for models, grids and studies.

Format: one ``key = value`` pair per line, ``#`` comments, lists separated by
commas.  Documented keys:

    lambda, beta                     spike intensity and reversion speed
    jump.kind                        mixture (default) | pointmass | empirical
    jump.weights, jump.rates,        signed exponential mixture; sign -1 means
    jump.signs                       the negated exponential component
    jump.size                        point-mass jump size (a one-atom empirical law)
    jump.samples                     inline empirical sizes (comma separated)
    jump.samples_file                file of empirical sizes, one per line
    cont.kind                        expou | flat | twofactor
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
from typing import Dict, List, Tuple

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
    "build_study_pairs",
]

_KNOWN_KEYS = {
    "lambda",
    "beta",
    "jump.kind",
    "jump.weights",
    "jump.rates",
    "jump.signs",
    "jump.size",
    "jump.samples",
    "jump.samples_file",
    "cont.kind",
    "cont.kappa",
    "cont.vol",
    "cont.initial",
    "cont.level",
    "cont.alpha",
    "cont.sigma_s",
    "cont.sigma_l",
    "cont.rho",
    "cont.curve_level",
    "grid.n",
    "grid.horizon",
    "study.pairs",
}


class ConfigError(ValueError):
    pass


def load_config(path: str) -> Dict[str, str]:
    values: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value
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


def _require(cfg: Dict[str, str], key: str) -> str:
    if key not in cfg:
        raise ConfigError(f"missing required config key {key!r}")
    return cfg[key]


def _floats(text: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}") from exc


def _float(cfg: Dict[str, str], key: str, default=None) -> float:
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"bad number for {key!r}: {cfg[key]!r}") from exc


def build_grid(cfg: Dict[str, str]) -> GridSpec:
    try:
        n = int(_require(cfg, "grid.n"))
    except ValueError as exc:
        raise ConfigError(f"bad integer for 'grid.n': {cfg['grid.n']!r}") from exc
    return GridSpec(n=n, horizon=_float(cfg, "grid.horizon", 1.0))


def build_jump_law(cfg: Dict[str, str]) -> JumpLaw:
    kind = cfg.get("jump.kind", "mixture").lower()
    if kind == "mixture":
        weights = _floats(_require(cfg, "jump.weights"))
        rates = _floats(_require(cfg, "jump.rates"))
        signs = _floats(_require(cfg, "jump.signs"))
        return SignedExponentialMixture(tuple(weights), tuple(rates), tuple(signs))
    if kind == "pointmass":
        return Empirical([_float(cfg, "jump.size")])
    if kind == "empirical":
        if "jump.samples_file" in cfg:
            samples = load_floats(cfg["jump.samples_file"])
        elif "jump.samples" in cfg:
            samples = np.asarray(_floats(cfg["jump.samples"]))
        else:
            raise ConfigError("empirical law needs jump.samples or jump.samples_file")
        return Empirical(samples)
    raise ConfigError(f"unknown jump.kind {kind!r}")


def build_spike_params(cfg: Dict[str, str]) -> SpikeParams:
    return SpikeParams(
        intensity=_float(cfg, "lambda"),
        reversion=_float(cfg, "beta"),
        law=build_jump_law(cfg),
    )


def build_continuous(cfg: Dict[str, str]):
    kind = cfg.get("cont.kind", "expou").lower()
    if kind == "expou":
        return ExpOU(
            reversion=_float(cfg, "cont.kappa"),
            vol=_float(cfg, "cont.vol"),
            initial=_float(cfg, "cont.initial", 1.0),
        )
    if kind == "flat":
        return Flat(level=_float(cfg, "cont.level", 0.0))
    if kind == "twofactor":
        params = TwoFactorParams(
            alpha=_float(cfg, "cont.alpha"),
            sigma_s=_float(cfg, "cont.sigma_s"),
            sigma_l=_float(cfg, "cont.sigma_l"),
            rho=_float(cfg, "cont.rho"),
        )
        grid = build_grid(cfg)
        curve = ForwardCurve.flat(_float(cfg, "cont.curve_level", 1.0), grid.horizon)
        return TwoFactorDynamics(params, curve)
    raise ConfigError(f"unknown cont.kind {kind!r}")


def build_model(cfg: Dict[str, str]) -> ModelSpec:
    return ModelSpec(continuous=build_continuous(cfg), spikes=build_spike_params(cfg))


def build_study_pairs(cfg: Dict[str, str]) -> List[Tuple[float, float]]:
    """Parse study.pairs, e.g. '10:200, 10:2000' -> [(10, 200), (10, 2000)]."""
    text = _require(cfg, "study.pairs")
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ConfigError(f"bad study pair {chunk!r}; expected 'lambda:beta'")
        lam, beta = chunk.split(":", 1)
        try:
            pairs.append((float(lam), float(beta)))
        except ValueError as exc:
            raise ConfigError(f"bad study pair {chunk!r}") from exc
    if not pairs:
        raise ConfigError("study.pairs is empty")
    return pairs
