"""Command-line front end.

Commands: ``jsd`` (mode numbers, filter segmentation, synthesized PND),
``simulate`` (synthetic count records), ``sweep`` (estimator accuracy
grids), ``estimate`` (reconstruction from a counts file), ``bootstrap``
(resampled uncertainties).  All inputs come from a flat ``key = value``
config file with sections; unknown sections or keys and values of the
wrong type are rejected when the file loads, and unset keys take the
library's defaults.  Every command is deterministic given (config, seed)
and writes fixed-name CSV files into the output directory.

Exit codes: 0 success, 2 input/config error, 3 counts/model mismatch,
4 non-convergence.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import math
import os
import sys

import numpy as np

from . import presets
from .detection import (
    DetectorPair,
    check_counts,
    noise_correct,
    read_counts_csv,
    singles,
    write_counts_csv,
)
from .errors import ConfigError, DataModelMismatchError, PpskitError
from .estimate import (
    EstimateOptions,
    LikelihoodModel,
    _fit_stack,
    _stack,
    characterize,
    count_based_g2,
    count_based_gh2,
    count_based_pg_eta,
    eml_estimate_many,
    ml_estimate_many,
)
from .jsd import (
    FilterProfile,
    PumpGain,
    gaussian_jsd,
    pnd_from_segmentation,
    read_filter_csv,
    read_jsd_csv,
    schmidt_number_analytic,
    segment,
    synthesize_pnd,
)
from .metrics import _resample, _summarize, write_bootstrap_csv
from .pnd import (
    CharacteristicSet,
    PndMatrix,
    apply_loss_bipartite,
    characteristics,
    characteristics_many,
    read_pnd_csv,
    write_pnd_csv,
)
from .simulate import ExperimentConfig, SweepSpec, random_pps_pnd, run_sweep, simulate_records, write_sweep_csv
from .tables import parse_int, write_table

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MISMATCH = 3
EXIT_NO_CONVERGENCE = 4


def _flag(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(text)


def _floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _ints(text: str) -> tuple:
    return tuple(parse_int(tok) for tok in text.split(",") if tok.strip())


# What each value parser accepts, for the error on a value it rejects.
_MUST_BE = {
    float: "a number",
    parse_int: "an integer",
    _flag: "a boolean",
    _floats: "a comma list of numbers",
    _ints: "a comma list of integers",
}
_FILTER_KEYS = {"kind": str, "center": float, "width": float, "fwhm": float,
                "file": str, "csv_kind": str}

# Every section's keys and the parser of each key's value.
_KEYS = {
    "jsd": {"source": str, "file": str, "sigma_plus": float, "sigma_minus": float,
            "theta_deg": float, "n_s": parse_int, "n_i": parse_int, "span": float,
            "chirp": float},
    "filter_s": _FILTER_KEYS,
    "filter_i": _FILTER_KEYS,
    "gain": {"xi_sq": float},
    "pnd": {"source": str, "file": str, "p_g": float, "seed": parse_int,
            "loss_T_s": float, "loss_T_i": float},
    "detectors": dict.fromkeys(("T_s", "T_i", "eta1", "eta2", "eta3", "eta4",
                                "d1", "d2", "d3", "d4", "rep_rate_hz"), float),
    "settings": {"gammas_s": _floats, "gammas_i": _floats},
    "simulate": {"n_m": parse_int, "seed": parse_int, "reps": parse_int},
    "sweep": {"method": str, "p_g_grid": _floats, "n_m_grid": _floats,
              "eta_grid": _floats, "d_grid": _floats, "gamma_design": str,
              "reps": parse_int, "seed": parse_int, "bs_T": float,
              "exact_counts": _flag, "n_starts": parse_int, "max_iter": parse_int},
    "estimate": {"method": str, "n_starts": parse_int, "max_iter": parse_int,
                 "seed": parse_int},
    "bootstrap": {"n_boot": parse_int, "sample_sizes": _ints, "seed": parse_int},
}
_REQUIRED = object()


class RunConfig:
    """A flat config file with every value parsed by its key's type on load."""

    def __init__(self, parser: configparser.ConfigParser, path: str):
        self._sections = {}
        for name in parser.sections():
            if name not in _KEYS:
                raise ConfigError(f"unknown config section [{name}] in {path}")
            values = self._sections[name] = {}
            for key, text in parser[name].items():
                if key not in _KEYS[name]:
                    raise ConfigError(f"unknown key '{key}' in section [{name}] of {path}")
                parse = _KEYS[name][key]
                try:
                    values[key] = parse(text)
                except ValueError:
                    raise ConfigError(
                        f"key '{key}' in [{name}] must be {_MUST_BE[parse]}, got {text!r}"
                    ) from None

    def has(self, section: str) -> bool:
        return section in self._sections

    def get(self, section: str, key: str, default=_REQUIRED):
        """The key's parsed value, else ``default``; without one the key is required."""
        value = self._sections.get(section, {}).get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"missing required key '{key}' in section [{section}]")
        return value

    def given(self, section: str, *keys: str) -> dict:
        """The keys among ``keys`` that the file sets, with their values."""
        values = self._sections.get(section, {})
        return {key: values[key] for key in keys if key in values}


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keys are case-sensitive (T_s vs t_s)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    return RunConfig(parser, path)


def _flagged(cfg: RunConfig, args, section: str, key: str, default):
    """The ``--seed``/``--reps`` flag if given, else the config's key."""
    value = getattr(args, key)
    return value if value is not None else cfg.get(section, key, default)


def _build_jsd(cfg: RunConfig):
    source = cfg.get("jsd", "source")
    if source == "csv":
        return read_jsd_csv(cfg.get("jsd", "file"))
    if source == "gaussian":
        return gaussian_jsd(
            sigma_plus=cfg.get("jsd", "sigma_plus"),
            sigma_minus=cfg.get("jsd", "sigma_minus"),
            theta=math.radians(cfg.get("jsd", "theta_deg", 45.0)),
            **cfg.given("jsd", "n_s", "n_i", "span", "chirp"),
        )
    raise ConfigError(f"key 'source' in [jsd] must be gaussian|csv, got {source!r}")


def _build_filter(cfg: RunConfig, section: str, axis) -> FilterProfile:
    kind = cfg.get(section, "kind", "allpass")
    if kind == "allpass":
        return FilterProfile.all_pass(axis)
    if kind == "rect":
        return FilterProfile.rect(axis, cfg.get(section, "center", 0.0), cfg.get(section, "width"))
    if kind == "gauss":
        return FilterProfile.gauss(axis, cfg.get(section, "center", 0.0), cfg.get(section, "fwhm"))
    if kind == "csv":
        return read_filter_csv(cfg.get(section, "file"), cfg.get(section, "csv_kind", "amplitude"))
    raise ConfigError(
        f"key 'kind' in [{section}] must be rect|gauss|allpass|csv, got {kind!r}"
    )


# [detectors] keys over the DetectorPair fields of the signal and idler pairs.
_DETECTOR_KEYS = (
    {"T_s": "T", "eta1": "eta_t", "eta2": "eta_r", "d1": "d_t", "d2": "d_r"},
    {"T_i": "T", "eta3": "eta_t", "eta4": "eta_r", "d3": "d_t", "d4": "d_r"},
)


def _synthesis_inputs(cfg: RunConfig) -> tuple:
    """The JSD, the signal and idler filters and the pump gain of ``cfg``."""
    jsd = _build_jsd(cfg)
    filt_s = _build_filter(cfg, "filter_s", jsd.axis_s)
    filt_i = _build_filter(cfg, "filter_i", jsd.axis_i)
    return jsd, filt_s, filt_i, PumpGain(cfg.get("gain", "xi_sq"))


def _build_detectors(cfg: RunConfig) -> tuple[DetectorPair, DetectorPair, float]:
    """The reference detectors with the [detectors] keys the file sets put over them."""
    det_s, det_i = (
        dataclasses.replace(
            ref, **{keys[key]: value for key, value in cfg.given("detectors", *keys).items()}
        )
        for ref, keys in zip(presets.reference_detectors(), _DETECTOR_KEYS)
    )
    rep_rate = cfg.get("detectors", "rep_rate_hz", presets.REFERENCE_REP_RATE_HZ)
    if not 0 < rep_rate < math.inf:
        raise ConfigError(
            f"key 'rep_rate_hz' in [detectors] must be positive and finite, got {rep_rate}"
        )
    return det_s, det_i, rep_rate


def _build_settings(cfg: RunConfig) -> tuple:
    gs = cfg.get("settings", "gammas_s", (1.0,))
    gi = cfg.get("settings", "gammas_i", (1.0,))
    if len(gs) != len(gi):
        raise ConfigError("gammas_s and gammas_i must have the same length")
    return tuple(zip(gs, gi))


def _source_pnd(cfg: RunConfig, seed: int) -> PndMatrix:
    source = cfg.get("pnd", "source")
    if source == "csv":
        pnd, _ = read_pnd_csv(cfg.get("pnd", "file"))
    elif source == "random":
        pnd = random_pps_pnd(cfg.get("pnd", "p_g"), cfg.get("pnd", "seed", seed))
    elif source == "synthesize":
        pnd = synthesize_pnd(*_synthesis_inputs(cfg))
    else:
        raise ConfigError(
            f"key 'source' in [pnd] must be synthesize|csv|random, got {source!r}"
        )
    T_s = cfg.get("pnd", "loss_T_s", 1.0)
    T_i = cfg.get("pnd", "loss_T_i", 1.0)
    if (T_s, T_i) != (1.0, 1.0):
        pnd = apply_loss_bipartite(pnd, T_s, T_i)
    return pnd


def _write_report(path, rows) -> None:
    write_table(path, ["metric", "value"], rows, float_format=".12g")


def _outdir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_jsd(cfg: RunConfig, args) -> int:
    jsd, filt_s, filt_i, gain = _synthesis_inputs(cfg)
    out = _outdir(args)

    seg = segment(jsd, filt_s, filt_i)
    pnd = pnd_from_segmentation(seg, gain)
    chars = characteristics(pnd)

    # Either route of segment holds sum(s^4) over the scaled grid's singular
    # values; k_analytic stays the independent O(n^3) Gram trace.
    rows = [
        ("k_svd", 1.0 / seg.purity),
        ("k_analytic", schmidt_number_analytic(jsd)),
    ]
    rows += [(f"q{j + 1}", float(seg.q[j])) for j in range(4)]
    rows += [(f"kappa{j + 1}", float(seg.kappa[j])) for j in range(4)]
    rows += [
        ("ox13", seg.ox13),
        ("ox24", seg.ox24),
        ("oy14", seg.oy14),
        ("oy23", seg.oy23),
        ("oc_re", seg.oc.real),
        ("oc_im", seg.oc.imag),
        ("xi_sq", gain.xi_sq),
    ]
    rows += list(chars.as_dict().items())
    _write_report(os.path.join(out, "report.csv"), rows)
    write_pnd_csv(os.path.join(out, "pnd.csv"), pnd)
    print(f"wrote {out}/report.csv and {out}/pnd.csv")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, args) -> int:
    seed = _flagged(cfg, args, "simulate", "seed", 0)
    det_s, det_i, _ = _build_detectors(cfg)
    pnd = _source_pnd(cfg, seed)
    config = ExperimentConfig(
        pnd=pnd,
        det_s=det_s,
        det_i=det_i,
        settings=_build_settings(cfg),
        n_m=cfg.get("simulate", "n_m"),
        seed=seed,
        reps=_flagged(cfg, args, "simulate", "reps", 1),
    )
    out = _outdir(args)
    write_pnd_csv(os.path.join(out, "pnd_true.csv"), pnd, {"seed": seed})
    for rep in range(int(config.reps)):
        records = simulate_records(config, rep)
        name = "counts.csv" if rep == 0 else f"counts_rep{rep}.csv"
        write_counts_csv(os.path.join(out, name), records)
    print(f"wrote {out}/counts.csv (+{int(config.reps) - 1} repetition files)")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, args) -> int:
    spec = SweepSpec(
        p_g_grid=cfg.get("sweep", "p_g_grid"),
        n_m_grid=cfg.get("sweep", "n_m_grid"),
        reps=_flagged(cfg, args, "sweep", "reps", 20),
        **cfg.given("sweep", "eta_grid", "d_grid", "gamma_design", "bs_T", "exact_counts",
                    "n_starts", "max_iter"),
    )
    seed = _flagged(cfg, args, "sweep", "seed", 0)
    rows = run_sweep(spec, cfg.get("sweep", "method", "ml-2x2d"), seed=seed)
    out = _outdir(args)
    write_sweep_csv(os.path.join(out, "sweep.csv"), rows)
    print(f"wrote {out}/sweep.csv ({len(rows)} rows)")
    return EXIT_OK


def _count_threshold_warnings(records, model, p_hat) -> list[str]:
    warnings = []
    min_expected = math.inf
    for rec in records:
        W = model.kernels[rec.nu] @ p_hat.p.reshape(-1)
        min_expected = min(min_expected, float(W.min()) * rec.n_m)
        if rec.f[3, 3] == 0:
            warnings.append(
                f"setting {rec.nu}: no all-click events observed; "
                "two-photon cells are weakly constrained"
            )
    if min_expected < 10:
        warnings.append(
            f"smallest expected outcome count is {min_expected:.3g} (< 10): "
            "estimates of the smallest cells are unreliable; collect more trials"
        )
    elif min_expected < 100:
        warnings.append(
            f"smallest expected outcome count is {min_expected:.3g}: "
            "at least 100 is recommended for accurate estimation"
        )
    return warnings


def _counts_and_model(cfg: RunConfig, args):
    """Counts file, fitted model and [estimate] method of estimate/bootstrap."""
    if not args.counts:
        raise ConfigError(f"{args.command} requires --counts <file>")
    records, info = read_counts_csv(args.counts)
    det_s, det_i, rep_rate = _build_detectors(cfg)
    model = LikelihoodModel(det_s=det_s, det_i=det_i, settings=_build_settings(cfg))
    method = cfg.get("estimate", "method", "ml")
    if method not in ("ml", "eml"):
        raise ConfigError(f"key 'method' in [estimate] must be ml|eml, got {method!r}")
    return records, info, model, method, rep_rate


_ESTIMATORS = {"ml": ml_estimate_many, "eml": eml_estimate_many}


def _estimate_options(cfg: RunConfig, args) -> EstimateOptions:
    """[estimate] fit options, shared by the estimate and every bootstrap refit."""
    fields = cfg.given("estimate", "n_starts", "max_iter", "seed")
    if args.seed is not None:
        fields["seed"] = args.seed
    return EstimateOptions(**fields)


def cmd_estimate(cfg: RunConfig, args) -> int:
    records, info, model, method, rep_rate = _counts_and_model(cfg, args)
    det_s, det_i = model.det_s, model.det_i
    options = _estimate_options(cfg, args)
    fit = _ESTIMATORS[method]([records], model, options)[0]

    out = _outdir(args)
    metadata = {
        "loglik": f"{fit.loglik:.17g}",
        "iterations": fit.iterations,
        "converged": fit.converged,
        "seed": options.seed,
        "model_hash": model.hash(),
        "method": method,
        "rows_per_setting": info["rows_per_setting"],
    }
    write_pnd_csv(os.path.join(out, "pnd_hat.csv"), fit.p_hat, metadata)

    chars = characterize(fit)
    rows = list(chars.as_dict().items())

    rec0 = records[0]
    gamma_s, gamma_i = model.settings[rec0.nu]  # the attenuators rec0 was taken with
    etas = (gamma_s * det_s.eta_t, gamma_s * det_s.eta_r,
            gamma_i * det_i.eta_t, gamma_i * det_i.eta_r)
    corrected = noise_correct(rec0, det_s.d_t, det_s.d_r, det_i.d_t, det_i.d_r)
    try:
        pg_c, etas_c, etai_c = count_based_pg_eta(corrected, etas)
        rows += [
            ("pg_counts", pg_c),
            ("etaHs_counts", etas_c),
            ("etaHi_counts", etai_c),
        ]
    except PpskitError:
        pass
    for mode in ("s", "i"):
        try:
            rows.append((f"g2{mode}_counts", count_based_g2(corrected, mode)))
            rows.append((f"gh2{mode}_counts", count_based_gh2(corrected, mode)))
        except PpskitError:
            pass
    S = singles(rec0)
    for j in range(4):
        rows.append((f"S{j + 1}_per_trial", S[j] / max(rec0.n_m, 1)))
        rows.append((f"S{j + 1}_per_second", S[j] / max(rec0.n_m, 1) * rep_rate))
    _write_report(os.path.join(out, "characteristics.csv"), rows)

    for warning in _count_threshold_warnings(records, model, fit.p_hat):
        print(f"warning: {warning}", file=sys.stderr)
    code = EXIT_OK
    if args.bootstrap or cfg.has("bootstrap"):
        code = _run_bootstrap(cfg, args, records, model, method, options, out)
    if not fit.converged:
        print("warning: estimator did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"wrote {out}/pnd_hat.csv and {out}/characteristics.csv")
    return code


def _run_bootstrap(cfg, args, records, model, method, options, out) -> int:
    """Resample every setting's record and refit each draw's records jointly.

    Each record is resampled at every ``sample_sizes`` entry, or by default
    at its own ``n_m``.  The draws of one size stay one count stack (draws
    x records x outcomes): checked once per record, refitted in one call
    of the batched core ``_fit_stack`` and summarized over the
    characteristics of every refit at once.  A draw whose refit did not
    converge, or whose characteristics are undefined, counts in
    ``n_fail``.  Returns the exit code: non-convergence, with no summary
    written, when no refit of some size converged.
    """
    seed = _flagged(cfg, args, "bootstrap", "seed", 0)
    n_boot = cfg.get("bootstrap", "n_boot", 100)
    if n_boot < 1:
        raise ConfigError(f"key 'n_boot' in [bootstrap] must be at least 1, got {n_boot}")
    sizes = cfg.get("bootstrap", "sample_sizes", None) or (None,)
    K, _ = _stack([records], model)  # every record must fit the model
    side = model.n_max + 1

    rows = []
    for size in sizes:
        n_ms = [rec.n_m if size is None else size for rec in records]
        F = np.stack([_resample(rec, n_boot, n_m, seed) for rec, n_m in zip(records, n_ms)], axis=1)
        for r, n_m in enumerate(n_ms):
            check_counts(F[:, r], n_m)
        fits = _fit_stack(K, F, model, options, eml=method == "eml")
        if not fits.converged.any():
            print(f"error: none of the {n_boot} bootstrap refits converged", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        # Undefined characteristics are NaN, which _summarize counts in n_fail.
        values, _ = characteristics_many(fits.p.reshape(-1, side, side))
        rows.extend(_summarize(CharacteristicSet.FIELDS, values, fits.converged, sum(n_ms)))
    write_bootstrap_csv(os.path.join(out, "bootstrap_summary.csv"), rows)
    print(f"wrote {out}/bootstrap_summary.csv")
    return EXIT_OK


def cmd_bootstrap(cfg: RunConfig, args) -> int:
    records, _, model, method, _ = _counts_and_model(cfg, args)
    options = _estimate_options(cfg, args)
    return _run_bootstrap(cfg, args, records, model, method, options, _outdir(args))


_FLAGS = {
    "--seed": dict(type=int, default=None, help="override config seeds"),
    "--reps": dict(type=int, default=None, help="override repetitions"),
    "--counts": dict(default=None, help="counts CSV file"),
    "--bootstrap": dict(action="store_true", help="also bootstrap after estimating"),
}

# Beyond --config and --out, each command takes only the flags it reads.
_SUBCOMMANDS = (
    ("jsd", "mode numbers, segmentation and synthesized PND of a filtered JSD", ()),
    ("simulate", "generate synthetic count records", ("--seed", "--reps")),
    ("sweep", "estimator accuracy over a parameter grid", ("--seed", "--reps")),
    ("estimate", "reconstruct a PND from a counts file", ("--seed", "--counts", "--bootstrap")),
    ("bootstrap", "bootstrap uncertainties of the estimates", ("--seed", "--counts")),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="ppskit",
        description="simulate and estimate photon-pair-source photon number distributions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, flags in _SUBCOMMANDS:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the run config file")
        cmd.add_argument("--out", default=".", help="output directory (default: .)")
        for flag in flags:
            cmd.add_argument(flag, **_FLAGS[flag])
    return parser


_COMMANDS = {
    "jsd": cmd_jsd,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "estimate": cmd_estimate,
    "bootstrap": cmd_bootstrap,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command](cfg, args)
    except (PpskitError, OSError) as exc:  # an OSError names the path it failed on
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH if isinstance(exc, DataModelMismatchError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
