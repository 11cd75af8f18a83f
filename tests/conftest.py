import logging
import time
from typing import Optional

import numpy as np
import pytest

from specdesc.laplacian import assemble_fem, compute_spectrum
from specdesc.mesh import TriangleMesh
from specdesc.synth import _quad_faces, icosphere


def grid_mesh(nx: int, ny: Optional[int] = None, width: float = 1.0,
              height: Optional[float] = None) -> TriangleMesh:
    """Planar rectangle split into `nx` x `ny` cells, two triangles each.

    All cells share the same diagonal direction, so on a square grid the
    cotangent stiffness reduces to the classic 5-point stencil.
    """
    ny = nx if ny is None else ny
    height = width if height is None else height
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)])
    ids = np.arange(gx.size).reshape(ny + 1, nx + 1)
    return TriangleMesh(vertices, _quad_faces(ids[:-1, :-1], ids[:-1, 1:], ids[1:, 1:],
                                              ids[1:, :-1]))


@pytest.fixture(scope="session")
def ico4():
    return icosphere(4)


@pytest.fixture(scope="session")
def ico4_operator(ico4):
    return assemble_fem(ico4)


@pytest.fixture(scope="session")
def ico4_spectrum(ico4_operator):
    # 120 pairs cover every sphere test: l(l+1) clusters, Weyl counting, HKS/WKS
    return compute_spectrum(ico4_operator, 120)


@pytest.fixture(scope="session")
def grid30():
    return grid_mesh(30)


@pytest.fixture(scope="session")
def grid30_spectrum(grid30):
    return compute_spectrum(assemble_fem(grid30), 6)


# ---------------------------------------------------------------------------
# full pipeline run shared by the acceptance criteria
# ---------------------------------------------------------------------------

CORPUS_CONFIG = """\
[shapes]
manifest = corpus/manifest.csv

[spectral]
s = 120

[basis]
m = 100

[descriptor]
n = 12

[learning]
refs_per_shape = 60
negatives_per_ref = 220
cross_negatives_per_ref = 140
ridge = 1e-2
rng_seed = 0

[eval]
mode = sensitivity
eval_refs_per_shape = 30
eval_negatives_per_ref = 180
eval_cross_negatives_per_ref = 80
cmc_refs = 400
"""


@pytest.fixture(scope="session")
def corpus_run(tmp_path_factory):
    """Synthesize the corpus and drive the CLI end to end, twice for the
    determinism criterion. Returns every output path plus the wall time of
    the first full pass."""
    from specdesc.cli import main

    logging.disable(logging.INFO)
    root = tmp_path_factory.mktemp("pipeline")
    config = root / "config.cfg"
    config.write_text(CORPUS_CONFIG)
    base = ["--config", str(config)]

    def run(args):
        code = main([str(a) for a in args])
        assert code == 0, f"pipeline step failed: {args}"

    started = time.time()
    run(["synth", "--out", root / "corpus"])
    run(["spectrum", *base])
    run(["train", *base, "--out", root / "train_sens"])
    run(["train", *base, "--mode", "specificity", "--out", root / "train_spec"])
    for family in ("hks", "wks", "shapedna"):
        run(["describe", *base, "--family", family, "--out", root / "desc"])
    run(["describe", *base, "--family", "learned",
         "--model", root / "train_sens" / "model.json", "--out", root / "desc_sens"])
    run(["describe", *base, "--family", "learned",
         "--model", root / "train_spec" / "model.json", "--out", root / "desc_spec"])
    run(["eval", *base,
         "--descriptors", f"hks={root / 'desc'}", f"wks={root / 'desc'}",
         f"learned={root / 'desc_sens'}", "--out", root / "report_sens"])
    run(["eval", *base,
         "--descriptors", f"hks={root / 'desc'}", f"wks={root / 'desc'}",
         f"learned={root / 'desc_spec'}", "--out", root / "report_spec"])
    elapsed = time.time() - started

    # second pass with the same seed into fresh output directories
    run(["train", *base, "--out", root / "train_sens_2"])
    run(["describe", *base, "--family", "learned",
         "--model", root / "train_sens_2" / "model.json", "--out", root / "desc_sens_2"])
    run(["eval", *base,
         "--descriptors", f"hks={root / 'desc'}", f"wks={root / 'desc'}",
         f"learned={root / 'desc_sens_2'}", "--out", root / "report_sens_2"])
    logging.disable(logging.NOTSET)

    return {
        "root": root,
        "config": config,
        "corpus": root / "corpus",
        "train_sens": root / "train_sens",
        "train_spec": root / "train_spec",
        "desc": root / "desc",
        "desc_sens": root / "desc_sens",
        "desc_spec": root / "desc_spec",
        "report_sens": root / "report_sens",
        "report_spec": root / "report_spec",
        "train_sens_2": root / "train_sens_2",
        "report_sens_2": root / "report_sens_2",
        "elapsed": elapsed,
    }


def read_table(path):
    """CSV (with optional leading comment lines) -> dict of columns."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {
        name: [row[i] for row in rows] for i, name in enumerate(header)
    }
