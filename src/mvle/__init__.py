"""Multi-view subspace learning with bag-of-neighbors graph weighting.

The pipeline: per-view K-nearest neighbors produce bag-of-neighbors label
count vectors, a joint heat-kernel graph couples all samples of all views,
and a generalized eigensolve yields one embedding whose row blocks map back
to the views. A two-stage random-feature network (`mhon`) extends the
embedding to unseen samples and classifies them; `baselines` holds the
linear comparison methods and the one random-feature layer that the ELM
classifier and both MHON stages are, and `bench` the repeated
split/fit/score protocol. The command line lives in `mvle.cli`
(``python -m mvle``), which is not imported here.
"""

from . import baselines, bench, bon, dataset, embedding, errors, graph, linalg, metrics, mhon
from .dataset import MultiViewDataset, SyntheticSpec, View, gen_synthetic
from .embedding import fit

__all__ = [
    "baselines",
    "bench",
    "bon",
    "dataset",
    "embedding",
    "errors",
    "graph",
    "linalg",
    "metrics",
    "mhon",
    "MultiViewDataset",
    "SyntheticSpec",
    "View",
    "gen_synthetic",
    "fit",
]

__version__ = "0.1.0"
