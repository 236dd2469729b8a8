"""The benchmark's workloads: one public entry-point call each.

Every workload runs on the unit T^2 at N = 64, K = 200.  The seed given to
the benchmark becomes ``ExperimentConfig.seed``; the pair counts below are
part of the workload and set its run length.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0
HELD_OUT_SEED = 1

_NORMCMP_ROWS = (
    "normcmp-01-trivial-branch", "normcmp-02-lattice-branch",
    "normcmp-03-combined", "normcmp-04-energy-invariance",
)
_VERIFY_ROWS = _NORMCMP_ROWS + (
    "defect-01-bound", "defect-02-exact-law",
    "deform-01-slope-c0.1", "deform-02-slope-c0.5", "deform-03-slope-c2.0",
    "deform-04-oscillation", "deform-05-endpoint",
    "deform-06-straighten-harmonic", "deform-07-straighten-endpoint",
    "disp-01-shear-field", "disp-02-route-agreement", "disp-03-base-transfer",
    "disp-04-shear-energy", "disp-05-energy-decomposition",
    "disp-06-choice-independence", "disp-07-iteration-law",
    "disp-08-iteration-law-negative", "disp-09-continuity",
    "fact2-01-product-shear", "fact2-02-translation", "fact2-03-hamiltonian",
    "flux-01-cocycle", "flux-02-cocycle-refinement", "flux-03-shear-class",
    "flux-04-hamiltonian-class", "flux-05-translation-loop-class",
    "flux-06-homomorphism", "flux-07-gradient-identity",
    "flux-08-representative-independence", "flux-09-homotopy-invariance",
    "flux-10-factorization-shear", "flux-11-factorization-translation",
    "flux-12-factorization-exact", "flux-13-orbit-constancy",
    "flux-14-hamiltonian-loop-windings", "flux-15-kernel-forward",
    "flux-16-kernel-converse", "flux-17-orbit-criterion",
    "flux-18-orbit-criterion-control", "flux-19-order-two",
    "flux-20-order-three", "flux-21-surjectivity", "flux-22-loop-lattice",
    "growth-01-ratio", "growth-02-flux-linearity", "growth-03-nonidentity",
    "growth-04-sup-length-bound",
    "hofer-01-shear-length", "hofer-02-translation-length",
    "hofer-03-field-norm", "hofer-04-cutoff-slope",
    "hofer-05-length-additivity", "hofer-06-sup-length-bound",
    "hofer-07-hodge-split",
    "rigidity-01-limit-windings", "rigidity-02-hypothesis-control",
    "rigidity-03-constant-sequence",
    "separation-01-wiggle", "separation-02-hypothesis-control",
    "separation-03-translation-selfcheck",
)


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str | None  # None: the full ``run_verify`` suite
    config: dict  # ExperimentConfig fields besides the seed
    rows: tuple[str, ...]  # check ids the call must return, all passing

    def make_config(self, seed: int):
        from torusflux.config import ExperimentConfig

        return ExperimentConfig(seed=seed, **self.config).validate()

    def run(self, config):
        """The workload call; returns ``(rows, extras)``."""
        from torusflux import scenarios

        if self.scenario is None:
            return scenarios.run_verify(config)
        return scenarios.run_scenario(self.scenario, config)


# Why each workload is here is in BENCHMARK.json.  verify runs five survey
# pairs and one cocycle pair so that a traced run (an untraced and a traced
# call) stays inside the run time limit.  A defect-survey workload of its own
# (40 pairs, one ~20 s call per run) was left out: on a 2-core VM its wall
# time spread by 19 % of the median over ten runs, too close to the largest
# bound a metric may have (25 %).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("normcmp", "norm-comparison", {}, _NORMCMP_ROWS),
        Workload("verify", None, {"pair_count": 5, "cocycle_pairs": 1},
                 _VERIFY_ROWS),
    )
}
