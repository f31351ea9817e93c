#!/usr/bin/env python3
"""Noise study of g2 / heralded-g2 estimators on a wide/narrow source.

For each noise level, repeated synthetic runs compare three estimates of
the marginal and heralded second-order correlations: raw count ratios,
noise-corrected count ratios, and values derived from the reconstructed
photon number distribution.  Raw ratios sink toward 1 (g2) or inflate
(heralded g2) as noise grows; the reconstruction tracks the true values
regardless.

Example:
    python3 scripts/heralded_bias_study.py --reps 20 --n-m 1e11 --out bias.csv
"""

import argparse

import numpy as np

from ppskit.detection import bipartite_probs, noise_correct
from ppskit.estimate import (
    EstimateOptions,
    LikelihoodModel,
    characterize,
    count_based_g2,
    count_based_gh2,
    ml_estimate_many,
)
from ppskit.pnd import g2_marginal, gh2, marginal
from ppskit.presets import wide_narrow_study
from ppskit.rng import substream
from ppskit.simulate import sample_counts
from ppskit.tables import write_table

COLUMNS = ("d", "rep", "estimator", "g2_s", "g2_i", "gh2_s", "gh2_i")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--noise", type=float, nargs="+",
                        default=[1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    parser.add_argument("--n-m", type=float, default=1e11)
    parser.add_argument("--reps", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="heralded_bias.csv")
    args = parser.parse_args(argv)

    study = wide_narrow_study()
    P = study.source_pnd()
    true_values = {
        "g2_s": g2_marginal(marginal(P, "s"), truncated=True),
        "g2_i": g2_marginal(marginal(P, "i"), truncated=True),
        "gh2_s": gh2(P, "s"),
        "gh2_i": gh2(P, "i"),
    }
    print("true values:", {k: f"{v:.4g}" for k, v in true_values.items()})

    rows = []
    for d in args.noise:
        det_s, det_i = study.detectors(d)
        W = bipartite_probs(P, det_s, det_i)
        model = LikelihoodModel(det_s=det_s, det_i=det_i)
        options = EstimateOptions(n_starts=3)
        recs = [
            sample_counts(W, int(args.n_m), substream(args.seed, "bias", d, rep))
            for rep in range(args.reps)
        ]
        fits = ml_estimate_many([[rec] for rec in recs], model, options)
        for rep, (rec, fit) in enumerate(zip(recs, fits)):
            corrected = noise_correct(rec, d, d, d, d)
            chars = characterize(fit)
            for label, source in (
                ("raw", rec),
                ("corrected", corrected),
            ):
                rows.append(
                    {
                        "d": d, "rep": rep, "estimator": label,
                        "g2_s": count_based_g2(source, "s"),
                        "g2_i": count_based_g2(source, "i"),
                        "gh2_s": count_based_gh2(source, "s"),
                        "gh2_i": count_based_gh2(source, "i"),
                    }
                )
            rows.append(
                {
                    "d": d, "rep": rep, "estimator": "reconstructed",
                    "g2_s": chars.g2_s, "g2_i": chars.g2_i,
                    "gh2_s": chars.gh2_s, "gh2_i": chars.gh2_i,
                }
            )
        for label in ("raw", "corrected", "reconstructed"):
            sel = [r for r in rows if r["d"] == d and r["estimator"] == label]
            mean_gh2i = np.mean([r["gh2_i"] for r in sel])
            print(f"d={d:g} {label:>13}: gh2_i {mean_gh2i:.4g} "
                  f"(ratio to true {mean_gh2i / true_values['gh2_i']:.3f})")

    # An empty float format writes the shortest repr, as the csv module does.
    table = ([row[col] for col in COLUMNS] for row in rows)
    write_table(args.out, COLUMNS, table, float_format="")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
