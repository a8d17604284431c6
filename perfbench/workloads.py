"""Workload definitions: which canonical configs one pass runs, and why.

WORKLOADS are the ones BENCHMARK.json declares.  EXTRA_WORKLOADS run only
when named on the command line (or with ``--workload all``).
"""

WORKLOADS = {
    "eig_large": {
        "configs": ("wave_operator",),
        "why": "N=2560 free and full eigensolves with no time stepping; "
               "moves with eigensolver changes only",
    },
    "strang_small": {
        "configs": (
            "conservation", "small_data_global", "subcritical_global_cases",
            "morawetz", "localized_mass", "perturbation",
        ),
        "why": "Strang stepping at N=192-512 where eigenvector matrices fit in cache; "
               "eigensolves are a few percent",
    },
    "modal_small": {
        "configs": ("strichartz", "sobolev_equiv", "final_state"),
        "why": "modal transforms, lp_norm and Picard sweeps from analysis calls "
               "at N=256, not from stepping",
    },
}

# One pass is about 35 s on 2 cores, so a run holds a single pass and its
# traced run takes over two minutes: too slow and too noisy for the
# benchmark's run budget.  Kept for checking large-grid stepping by hand.
EXTRA_WORKLOADS = {
    "scatter_large": {
        "configs": ("scattering",),
        "why": "stepping with a 52 MB eigenvector matrix at N=2560 plus eigensolves; "
               "catches small-grid gains that cost large grids",
    },
}

ALL_WORKLOADS = {**WORKLOADS, **EXTRA_WORKLOADS}
