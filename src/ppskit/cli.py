"""Command-line front end.

Commands: ``jsd`` (mode numbers, filter segmentation, synthesized PND),
``simulate`` (synthetic count records), ``sweep`` (estimator accuracy
grids), ``estimate`` (reconstruction from a counts file), ``bootstrap``
(resampled uncertainties).  All inputs come from a flat ``key = value``
config file with sections; unknown sections or keys are rejected.  Every
command is deterministic given (config, seed) and writes fixed-name CSV
files into the output directory.

Exit codes: 0 success, 2 input/config error, 3 counts/model mismatch,
4 non-convergence.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import os
import sys

from . import presets
from .detection import (
    DetectorPair,
    noise_correct,
    read_counts_csv,
    singles,
    write_counts_csv,
)
from .errors import (
    ConfigError,
    DataModelMismatchError,
    InvalidInputError,
    PpskitError,
)
from .estimate import (
    EstimateOptions,
    LikelihoodModel,
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
    schmidt_number_svd,
    segment,
    synthesize_pnd,
)
from .metrics import bootstrap, bootstrap_stats, write_bootstrap_csv
from .pnd import (
    PndMatrix,
    apply_loss_bipartite,
    characteristics,
    read_pnd_csv,
    write_pnd_csv,
)
from .simulate import ExperimentConfig, SweepSpec, random_pps_pnd, run_sweep, simulate_records, write_sweep_csv
from .tables import parse_int, write_table

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MISMATCH = 3
EXIT_NO_CONVERGENCE = 4

_KNOWN_KEYS = {
    "jsd": {"source", "file", "sigma_plus", "sigma_minus", "theta_deg",
            "n_s", "n_i", "span", "chirp"},
    "filter_s": {"kind", "center", "width", "fwhm", "file", "csv_kind"},
    "filter_i": {"kind", "center", "width", "fwhm", "file", "csv_kind"},
    "gain": {"xi_sq"},
    "pnd": {"source", "file", "p_g", "seed", "loss_T_s", "loss_T_i"},
    "detectors": {"T_s", "T_i", "eta1", "eta2", "eta3", "eta4",
                  "d1", "d2", "d3", "d4", "rep_rate_hz"},
    "settings": {"gammas_s", "gammas_i"},
    "simulate": {"n_m", "seed", "reps"},
    "sweep": {"method", "p_g_grid", "n_m_grid", "eta_grid", "d_grid",
              "gamma_design", "reps", "seed", "bs_T", "exact_counts",
              "n_starts", "max_iter"},
    "estimate": {"method", "n_starts", "max_iter", "seed"},
    "bootstrap": {"n_boot", "sample_sizes", "seed"},
}


class RunConfig:
    """Validated view of a flat config file."""

    def __init__(self, parser: configparser.ConfigParser, path: str):
        self.path = path
        self._sections = {name: dict(parser[name]) for name in parser.sections()}
        for name, keys in self._sections.items():
            if name not in _KNOWN_KEYS:
                raise ConfigError(f"unknown config section [{name}] in {path}")
            for key in keys:
                if key not in _KNOWN_KEYS[name]:
                    raise ConfigError(f"unknown key '{key}' in section [{name}] of {path}")

    def has(self, section: str, key: str | None = None) -> bool:
        if section not in self._sections:
            return False
        return key is None or key in self._sections[section]

    def _raw(self, section, key, default):
        if not self.has(section, key):
            if default is _REQUIRED:
                raise ConfigError(f"missing required key '{key}' in section [{section}]")
            return default
        return self._sections[section][key]

    def get_str(self, section, key, default=None):
        value = self._raw(section, key, default)
        return value if value is None else str(value)

    def get_float(self, section, key, default=None):
        value = self._raw(section, key, default)
        if value is None or isinstance(value, float):
            return value
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"key '{key}' in [{section}] must be a number, got {value!r}")

    def get_int(self, section, key, default=None):
        value = self._raw(section, key, default)
        if value is None or isinstance(value, int):
            return value
        try:
            return parse_int(value)
        except ValueError:
            raise ConfigError(f"key '{key}' in [{section}] must be an integer, got {value!r}")

    def get_bool(self, section, key, default=None):
        value = self._raw(section, key, default)
        if value is None or isinstance(value, bool):
            return value
        low = str(value).strip().lower()
        if low in ("true", "yes", "1", "on"):
            return True
        if low in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"key '{key}' in [{section}] must be a boolean, got {value!r}")

    def get_floats(self, section, key, default=None):
        return self._get_list(section, key, default, float, "numbers")

    def get_ints(self, section, key, default=None):
        return self._get_list(section, key, default, parse_int, "integers")

    def _get_list(self, section, key, default, parse, what):
        value = self._raw(section, key, default)
        if value is None or isinstance(value, tuple):
            return value
        try:
            return tuple(parse(tok) for tok in str(value).split(",") if tok.strip())
        except ValueError:
            raise ConfigError(f"key '{key}' in [{section}] must be a comma list of {what}")


class _RequiredType:
    pass


_REQUIRED = _RequiredType()


def load_config(path: str) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keys are case-sensitive (T_s vs t_s)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    return RunConfig(parser, path)


def _build_jsd(cfg: RunConfig):
    source = cfg.get_str("jsd", "source", _REQUIRED)
    if source == "csv":
        path = cfg.get_str("jsd", "file", _REQUIRED)
        if not os.path.exists(path):
            raise ConfigError(f"jsd file not found: {path}")
        return read_jsd_csv(path)
    if source == "gaussian":
        return gaussian_jsd(
            sigma_plus=cfg.get_float("jsd", "sigma_plus", _REQUIRED),
            sigma_minus=cfg.get_float("jsd", "sigma_minus", _REQUIRED),
            theta=math.radians(cfg.get_float("jsd", "theta_deg", 45.0)),
            n_s=cfg.get_int("jsd", "n_s", 256),
            n_i=cfg.get_int("jsd", "n_i", 256),
            span=cfg.get_float("jsd", "span", 5.0),
            chirp=cfg.get_float("jsd", "chirp", 0.0),
        )
    raise ConfigError(f"key 'source' in [jsd] must be gaussian|csv, got {source!r}")


def _build_filter(cfg: RunConfig, section: str, axis) -> FilterProfile:
    kind = cfg.get_str(section, "kind", "allpass")
    if kind == "allpass":
        return FilterProfile.all_pass(axis)
    if kind == "rect":
        return FilterProfile.rect(
            axis,
            cfg.get_float(section, "center", 0.0),
            cfg.get_float(section, "width", _REQUIRED),
        )
    if kind == "gauss":
        return FilterProfile.gauss(
            axis,
            cfg.get_float(section, "center", 0.0),
            cfg.get_float(section, "fwhm", _REQUIRED),
        )
    if kind == "csv":
        path = cfg.get_str(section, "file", _REQUIRED)
        if not os.path.exists(path):
            raise ConfigError(f"filter file not found: {path}")
        return read_filter_csv(path, cfg.get_str(section, "csv_kind", "amplitude"))
    raise ConfigError(
        f"key 'kind' in [{section}] must be rect|gauss|allpass|csv, got {kind!r}"
    )


def _build_detectors(cfg: RunConfig) -> tuple[DetectorPair, DetectorPair, float]:
    det_s_ref, det_i_ref = presets.reference_detectors()
    det_s = DetectorPair(
        T=cfg.get_float("detectors", "T_s", det_s_ref.T),
        eta_t=cfg.get_float("detectors", "eta1", det_s_ref.eta_t),
        eta_r=cfg.get_float("detectors", "eta2", det_s_ref.eta_r),
        d_t=cfg.get_float("detectors", "d1", det_s_ref.d_t),
        d_r=cfg.get_float("detectors", "d2", det_s_ref.d_r),
    )
    det_i = DetectorPair(
        T=cfg.get_float("detectors", "T_i", det_i_ref.T),
        eta_t=cfg.get_float("detectors", "eta3", det_i_ref.eta_t),
        eta_r=cfg.get_float("detectors", "eta4", det_i_ref.eta_r),
        d_t=cfg.get_float("detectors", "d3", det_i_ref.d_t),
        d_r=cfg.get_float("detectors", "d4", det_i_ref.d_r),
    )
    rep_rate = cfg.get_float("detectors", "rep_rate_hz", presets.REFERENCE_REP_RATE_HZ)
    return det_s, det_i, rep_rate


def _build_settings(cfg: RunConfig) -> tuple:
    gs = cfg.get_floats("settings", "gammas_s", (1.0,))
    gi = cfg.get_floats("settings", "gammas_i", (1.0,))
    if len(gs) != len(gi):
        raise ConfigError("gammas_s and gammas_i must have the same length")
    return tuple(zip(gs, gi))


def _source_pnd(cfg: RunConfig, seed: int) -> PndMatrix:
    source = cfg.get_str("pnd", "source", _REQUIRED)
    if source == "csv":
        path = cfg.get_str("pnd", "file", _REQUIRED)
        if not os.path.exists(path):
            raise ConfigError(f"pnd file not found: {path}")
        pnd, _ = read_pnd_csv(path)
    elif source == "random":
        pnd = random_pps_pnd(
            cfg.get_float("pnd", "p_g", _REQUIRED),
            cfg.get_int("pnd", "seed", seed),
        )
    elif source == "synthesize":
        jsd = _build_jsd(cfg)
        pnd = synthesize_pnd(
            jsd,
            _build_filter(cfg, "filter_s", jsd.axis_s),
            _build_filter(cfg, "filter_i", jsd.axis_i),
            PumpGain(cfg.get_float("gain", "xi_sq", _REQUIRED)),
        )
    else:
        raise ConfigError(
            f"key 'source' in [pnd] must be synthesize|csv|random, got {source!r}"
        )
    T_s = cfg.get_float("pnd", "loss_T_s", 1.0)
    T_i = cfg.get_float("pnd", "loss_T_i", 1.0)
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
    jsd = _build_jsd(cfg)
    filt_s = _build_filter(cfg, "filter_s", jsd.axis_s)
    filt_i = _build_filter(cfg, "filter_i", jsd.axis_i)
    gain = PumpGain(cfg.get_float("gain", "xi_sq", _REQUIRED))
    out = _outdir(args)

    seg = segment(jsd, filt_s, filt_i)
    pnd = pnd_from_segmentation(seg, gain)
    chars = characteristics(pnd)

    # The factored route already holds the singular values of the scaled
    # grid; k_analytic stays the independent O(n^3) Gram trace.
    s = seg.singular_values
    rows = [
        ("k_svd", schmidt_number_svd(jsd) if s is None else 1.0 / float((s**4).sum())),
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
    seed = args.seed if args.seed is not None else cfg.get_int("simulate", "seed", 0)
    reps = args.reps if args.reps is not None else cfg.get_int("simulate", "reps", 1)
    det_s, det_i, _ = _build_detectors(cfg)
    pnd = _source_pnd(cfg, seed)
    config = ExperimentConfig(
        pnd=pnd,
        det_s=det_s,
        det_i=det_i,
        settings=_build_settings(cfg),
        n_m=cfg.get_int("simulate", "n_m", _REQUIRED),
        seed=seed,
        reps=reps,
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
    seed = args.seed if args.seed is not None else cfg.get_int("sweep", "seed", 0)
    reps = args.reps if args.reps is not None else cfg.get_int("sweep", "reps", 20)
    spec = SweepSpec(
        p_g_grid=cfg.get_floats("sweep", "p_g_grid", _REQUIRED),
        n_m_grid=cfg.get_floats("sweep", "n_m_grid", _REQUIRED),
        eta_grid=cfg.get_floats("sweep", "eta_grid", (0.5,)),
        d_grid=cfg.get_floats("sweep", "d_grid", (0.0,)),
        gamma_design=cfg.get_str("sweep", "gamma_design", "none"),
        reps=reps,
        bs_T=cfg.get_float("sweep", "bs_T", 0.5),
        exact_counts=cfg.get_bool("sweep", "exact_counts", False),
        n_starts=cfg.get_int("sweep", "n_starts", 5),
        max_iter=cfg.get_int("sweep", "max_iter", 10000),
    )
    rows = run_sweep(spec, cfg.get_str("sweep", "method", "ml-2x2d"), seed=seed)
    out = _outdir(args)
    write_sweep_csv(os.path.join(out, "sweep.csv"), rows)
    print(f"wrote {out}/sweep.csv ({len(rows)} rows)")
    return EXIT_OK


def _count_threshold_warnings(records, model, p_hat) -> list[str]:
    warnings = []
    min_expected = math.inf
    for rec in records:
        W = model.kernel(rec.nu) @ p_hat.p.reshape(-1)
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
    if not os.path.exists(args.counts):
        raise ConfigError(f"counts file not found: {args.counts}")
    records, info = read_counts_csv(args.counts)
    det_s, det_i, rep_rate = _build_detectors(cfg)
    settings = _build_settings(cfg)
    if any(rec.nu >= len(settings) for rec in records):
        raise DataModelMismatchError(
            f"counts reference setting ids up to {max(r.nu for r in records)} "
            f"but the config defines {len(settings)} settings"
        )
    model = LikelihoodModel(det_s=det_s, det_i=det_i, settings=settings)
    method = cfg.get_str("estimate", "method", "ml")
    if method not in ("ml", "eml"):
        raise ConfigError(f"key 'method' in [estimate] must be ml|eml, got {method!r}")
    return records, info, model, method, rep_rate


_ESTIMATORS = {"ml": ml_estimate_many, "eml": eml_estimate_many}


def _estimate_options(cfg: RunConfig, args) -> EstimateOptions:
    """[estimate] fit options, shared by the estimate and every bootstrap refit."""
    return EstimateOptions(
        n_starts=cfg.get_int("estimate", "n_starts", 5),
        max_iter=cfg.get_int("estimate", "max_iter", 10000),
        seed=args.seed if args.seed is not None else cfg.get_int("estimate", "seed", 0),
    )


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

    etas = (det_s.eta_t, det_s.eta_r, det_i.eta_t, det_i.eta_r)
    rec0 = records[0]
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
    if args.bootstrap or cfg.has("bootstrap"):
        _run_bootstrap(cfg, args, records, model, method, options, out)
    if not fit.converged:
        print("warning: estimator did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(f"wrote {out}/pnd_hat.csv and {out}/characteristics.csv")
    return EXIT_OK


def _run_bootstrap(cfg, args, records, model, method, options, out) -> None:
    """Resample every setting's record and refit each draw's records jointly.

    Each record is resampled at every ``sample_sizes`` entry, or by default
    at its own ``n_m``.  Every draw of one size is refitted in one call of
    the method's ``*_many`` estimator.
    """
    seed = args.seed if args.seed is not None else cfg.get_int("bootstrap", "seed", 0)
    n_boot = cfg.get_int("bootstrap", "n_boot", 100)
    sizes = cfg.get_ints("bootstrap", "sample_sizes", None) or (None,)
    refit_all = functools.partial(_ESTIMATORS[method], model=model, options=options)

    def pipeline(fit):
        return characterize(fit).as_dict()

    rows = []
    for size in sizes:
        per_setting = [
            bootstrap(rec, n_boot, rec.n_m if size is None else size, seed=seed)
            for rec in records
        ]
        rows.extend(bootstrap_stats(list(zip(*per_setting)), pipeline, batch=refit_all))
    write_bootstrap_csv(os.path.join(out, "bootstrap_summary.csv"), rows)
    print(f"wrote {out}/bootstrap_summary.csv")


def cmd_bootstrap(cfg: RunConfig, args) -> int:
    records, _, model, method, _ = _counts_and_model(cfg, args)
    options = _estimate_options(cfg, args)
    _run_bootstrap(cfg, args, records, model, method, options, _outdir(args))
    return EXIT_OK


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
    except (ConfigError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DataModelMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except PpskitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
