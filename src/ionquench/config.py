"""Flat key-value run configuration.

Files hold one ``key = value`` pair per line; blank lines and lines
starting with ``#`` are ignored.  Frequencies are given as ordinary
frequencies in kHz and converted to angular rad/s internally, matching
how the hardware is usually quoted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .constants import atomic_mass, elementary_charge
from .coupling import (CouplingMatrix, fit_alpha, ion_couplings,
                       power_law_couplings, scale_rabi_for_jmax,
                       tune_mu_for_alpha)
from .errors import ConfigError
from .lattice import (Geometry, PhononModes, RAMAN_DELTA_K, TrapConfig,
                      axial_scale_from_spacing, exact_modes)
from .observables import ExcitationPattern
from .stochastic import NoiseModel

TWO_PI = 2.0 * math.pi

MODELS = ("exact", "xy", "spinwave")
SOURCES = ("power_law", "trap")
GEOMETRIES = ("uniform", "harmonic")

# key -> (type tag, default); None default means required
_SCHEMA: dict[str, tuple[str, object]] = {
    "n_ions": ("int", None),
    "b_khz": ("float", 10.0),
    "model": ("str", "exact"),
    "patterns": ("str", "1"),
    "t_max_over_jmax": ("float", 25.0),
    "n_times": ("int", 60),
    "seed": ("int", 0),
    "out_dir": ("str", "runs"),
    "coupling_source": ("str", "power_law"),
    "j_max_khz": ("float", 0.6),
    "alpha": ("float", 0.55),
    "target_alpha": ("float", 0.0),
    "omega_x_khz": ("float", 4800.0),
    "omega_z_khz": ("float", 0.0),
    "mu_khz": ("float", 0.0),
    "rabi_khz": ("float", 200.0),
    "delta_k_per_m": ("float", RAMAN_DELTA_K),
    "mass_amu": ("float", 170.936),
    "charge_e": ("float", 1.0),
    "spacing_um": ("float", 5.0),
    "geometry": ("str", "uniform"),
    "noise_samples": ("int", 0),
    "j_noise_sigma": ("float", 0.12),
    "prep_fidelity": ("float", 0.97),
    "detection_error": ("float", 0.05),
    "n_shots": ("int", 3000),
    "shot_time_over_jmax": ("float", -1.0),
    "alpha_grid": ("str", "0.55,1.33"),
    "scan_detuning_min": ("float", 1e-4),
    "scan_detuning_max": ("float", 1.0),
    "scan_points": ("int", 60),
}


def _parse_value(key: str, raw: str):
    kind = _SCHEMA[key][0]
    if kind == "str":
        return raw
    try:
        value = int(raw) if kind == "int" else float(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind}") from None
    # range checks in RunConfig compare false against NaN; reject it here
    if kind == "float" and not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    return value


def _parse_patterns(spec: str, n_ions: int) -> list[ExcitationPattern]:
    patterns = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            sites = tuple(int(tok) for tok in chunk.split(",") if tok.strip())
            pattern = ExcitationPattern(n_ions, sites)
        except ValueError as exc:
            raise ConfigError(f"patterns: {exc}") from None
        if pattern in patterns:
            raise ConfigError(f"patterns: {chunk!r} repeats pattern "
                              f"{pattern.flipped}")
        patterns.append(pattern)
    if not patterns:
        raise ConfigError("patterns: no pattern given")
    return patterns


@dataclass
class RunConfig:
    """Validated run parameters with everything in angular units."""

    raw: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        for key, (_, default) in _SCHEMA.items():
            if key not in self.raw:
                if default is None:
                    raise ConfigError(f"{key}: required key missing")
                self.raw[key] = default
        self._validate()

    def _validate(self):
        r = self.raw
        if r["n_ions"] < 2:
            raise ConfigError("n_ions: need at least 2")
        if r["b_khz"] <= 0:
            raise ConfigError("b_khz: must be positive")
        for key, choices in (("model", MODELS), ("coupling_source", SOURCES),
                             ("geometry", GEOMETRIES)):
            if r[key] not in choices:
                raise ConfigError(f"{key}: {r[key]!r} not one of {choices}")
        if r["coupling_source"] == "power_law":
            if r["j_max_khz"] <= 0:
                raise ConfigError("j_max_khz: must be positive for power_law")
            if r["alpha"] < 0:
                raise ConfigError("alpha: must be non-negative")
        else:
            for key in ("omega_x_khz", "rabi_khz", "spacing_um",
                        "mass_amu", "charge_e", "delta_k_per_m"):
                if r[key] <= 0:
                    raise ConfigError(f"{key}: must be positive for trap source")
            for key, zero in (("omega_z_khz", "derives it from spacing_um"),
                              ("mu_khz", "tunes mu to target_alpha"),
                              ("j_max_khz", "keeps rabi_khz unscaled")):
                if r[key] < 0:
                    raise ConfigError(f"{key}: must be non-negative; 0 {zero}")
            if r["mu_khz"] <= 0 and r["target_alpha"] <= 0:
                raise ConfigError(
                    "mu_khz: give a positive detuning or set target_alpha"
                )
            if r["target_alpha"] and not 0 < r["target_alpha"] < 3:
                raise ConfigError("target_alpha: must lie in (0, 3)")
        if r["t_max_over_jmax"] <= 0:
            raise ConfigError("t_max_over_jmax: must be positive")
        if r["n_times"] < 2:
            raise ConfigError("n_times: need at least 2 points")
        if not 0 <= r["seed"] < 2**64:
            raise ConfigError("seed: must fit in an unsigned 64-bit integer")
        for key in ("noise_samples", "j_noise_sigma"):
            if r[key] < 0:
                raise ConfigError(f"{key}: must be non-negative")
        for key in ("prep_fidelity", "detection_error"):
            if not 0 <= r[key] <= 1:
                raise ConfigError(f"{key}: must be a probability")
        if r["n_shots"] < 1:
            raise ConfigError("n_shots: must be >= 1")
        if r["scan_points"] < 2:
            raise ConfigError("scan_points: need at least 2 points")
        if not 0 < r["scan_detuning_min"] < r["scan_detuning_max"]:
            raise ConfigError(
                "scan_detuning_min: need 0 < min < scan_detuning_max"
            )
        self.patterns = _parse_patterns(r["patterns"], r["n_ions"])
        tokens = [tok.strip() for tok in str(r["alpha_grid"]).split(",")
                  if tok.strip()]
        try:
            self.alpha_grid = [float(tok) for tok in tokens]
        except ValueError:
            raise ConfigError("alpha_grid: cannot parse float list") from None
        if not all(map(math.isfinite, self.alpha_grid)):
            raise ConfigError("alpha_grid: values must be finite")
        if not self.alpha_grid or any(a < 0 for a in self.alpha_grid):
            raise ConfigError("alpha_grid: needs non-negative values")
        if (r["coupling_source"] == "trap"
                and not all(0 < a < 3 for a in self.alpha_grid)):
            raise ConfigError("alpha_grid: trap tuning targets must lie "
                              "in (0, 3)")
        for k, (tok, alpha) in enumerate(zip(tokens, self.alpha_grid)):
            if alpha in self.alpha_grid[:k]:
                raise ConfigError(f"alpha_grid: {tok!r} repeats exponent "
                                  f"{alpha!r}")

    # -- derived quantities -------------------------------------------------

    @property
    def n_ions(self) -> int:
        return self.raw["n_ions"]

    @property
    def b_field(self) -> float:
        return TWO_PI * 1e3 * self.raw["b_khz"]

    @property
    def model(self) -> str:
        return self.raw["model"]

    def require_fit_ions(self) -> None:
        """ConfigError unless the chain has the 3 ions a power-law fit,
        and so a detuning scan, needs."""
        if self.n_ions < 3:
            raise ConfigError("n_ions: tuning mu to an exponent needs at "
                              "least 3 ions for the power-law fit")

    def couplings(self) -> tuple[CouplingMatrix, TrapConfig | None,
                                 PhononModes | None]:
        """The configured coupling matrix, plus the trap and its modes
        when they exist.  A trap tunes mu to target_alpha unless mu_khz
        is set; see grid_couplings for the rest of the path."""
        [(jm, trap)], modes, _ = self._couplings(None)
        return jm, trap, modes

    def grid_couplings(self) -> tuple[list[CouplingMatrix],
                                      tuple[float, float] | None]:
        """One coupling matrix per alpha_grid exponent, and the [min, max]
        fitted exponent over the valid points of the trap's detuning
        scan (None for power-law couplings).

        Power-law couplings take each exponent as alpha.  A trap runs one
        detuning scan over the configured grid and tunes mu to each
        exponent's closest point (coupling.tune_mu_for_alpha).
        """
        built, _, scan_range = self._couplings(self.alpha_grid)
        return [jm for jm, _ in built], scan_range

    def _couplings(self, alphas: list[float] | None):
        """The (jm, trap) of each exponent of alphas (None: the configured
        one), the trap's modes and its scan's fitted range.

        Every tuned trap then has its Rabi frequency scaled to j_max_khz
        if set.  One solve of the chain's modes serves the scan, rescale
        and builds.
        """
        r = self.raw
        if r["coupling_source"] == "power_law":
            j_max = TWO_PI * 1e3 * r["j_max_khz"]
            return [(power_law_couplings(r["n_ions"], j_max, alpha), None)
                    for alpha in alphas or [r["alpha"]]], None, None
        if alphas is None and r["mu_khz"] <= 0:
            alphas = [r["target_alpha"]]
        if alphas is not None:
            self.require_fit_ions()
        mass = r["mass_amu"] * atomic_mass
        charge = r["charge_e"] * elementary_charge
        spacing = r["spacing_um"] * 1e-6
        omega_x = TWO_PI * 1e3 * r["omega_x_khz"]
        trap = TrapConfig(
            n_ions=r["n_ions"],
            omega_x=omega_x,
            omega_z=(TWO_PI * 1e3 * r["omega_z_khz"] if r["omega_z_khz"] > 0
                     else axial_scale_from_spacing(mass, charge, spacing)),
            # a placeholder just above omega_x when the scan sets mu
            mu=(TWO_PI * 1e3 * r["mu_khz"] if r["mu_khz"] > 0
                else 1.0001 * omega_x),
            rabi=TWO_PI * 1e3 * r["rabi_khz"],
            delta_k=r["delta_k_per_m"],
            mass=mass,
            charge=charge,
            spacing=spacing,
            geometry=Geometry(r["geometry"]),
        )
        modes = exact_modes(trap)
        traps, scan_range = [trap], None
        if alphas is not None:
            try:
                traps, scan_range = tune_mu_for_alpha(
                    trap, modes, alphas, r["scan_points"],
                    (r["scan_detuning_min"], r["scan_detuning_max"]))
            except ValueError as exc:  # the targets passed _validate
                raise ConfigError(f"scan_detuning_min/_max: {exc}") from None
        built = []
        for trap in traps:
            if r["j_max_khz"] > 0:
                trap = scale_rabi_for_jmax(trap, modes,
                                           TWO_PI * 1e3 * r["j_max_khz"])
            jm = ion_couplings(trap, modes)
            try:
                jm = replace(jm, alpha_fit=fit_alpha(jm))
            except ValueError:
                pass  # negative couplings: no power-law fit exists
            built.append((jm, trap))
        return built, modes, scan_range

    def noise_model(self) -> NoiseModel:
        r = self.raw
        return NoiseModel(
            j_relative_sigma=r["j_noise_sigma"],
            prep_flip_fidelity=r["prep_fidelity"],
            detection_error=r["detection_error"],
            seed=r["seed"],
        )


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a config file; unknown keys are an error."""
    raw: dict[str, object] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{key}: unknown key (line {lineno})")
        if key in raw:
            raise ConfigError(f"{key}: duplicate key (line {lineno})")
        raw[key] = _parse_value(key, value)
    return RunConfig(raw)
