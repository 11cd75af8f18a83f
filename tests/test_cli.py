import ast
import filecmp
import hashlib
import json
import logging
import os
import re
import shutil
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import specdesc
from specdesc.cli import Workspace, _solve_count, main
from specdesc.config import SETTINGS, parse_config, parse_config_text, read_manifest
from specdesc.container import output_dir, write_table
from specdesc.descriptors import (
    DESCRIPTOR_FAMILIES,
    load_descriptor_binary,
    save_descriptor_binary,
)
from specdesc.errors import DataError, ParseError
from specdesc.laplacian import (
    Spectrum,
    assemble_fem,
    compute_spectrum,
    load_spectrum,
    save_spectrum,
)
from specdesc.mesh import intrinsic_diameter, load_mesh
from specdesc.synth import (
    SyntheticCorpusSpec,
    bend,
    generate_corpus,
    jitter,
    load_index_map,
    multi_sphere,
    rigid_motion,
    save_index_map,
    save_off,
)

MINI_SHAPES = ("dumbbell", "icosphere", "flat_annulus", "multisphere", "torus")

MINI_CONFIG = """
[shapes]
manifest = {manifest}

[spectral]
s = 24

[basis]
m = 16

[descriptor]
n = 3

[learning]
refs_per_shape = 6
positives_per_ref = 4
negatives_per_ref = 20
cross_negatives_per_ref = 10
alpha_grid = 0.05,0.2
diameter_samples = 16

[eval]
eval_refs_per_shape = 5
eval_positives_per_ref = 4
eval_negatives_per_ref = 16
eval_cross_negatives_per_ref = 8
cmc_refs = 12
"""


@pytest.fixture(scope="module")
def mini_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini")
    spec = SyntheticCorpusSpec(base_shapes=MINI_SHAPES, deformations=("jitter",),
                               strengths=2)
    generate_corpus(spec, root / "corpus")
    config = root / "config.cfg"
    config.write_text(MINI_CONFIG.format(manifest="corpus/manifest.csv"))
    return root


def run(args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# config format
# ---------------------------------------------------------------------------


def test_config_defaults_match_contract():
    cfg = parse_config_text("")
    assert cfg["s"] == 300
    assert cfg["nu_max_percentile"] == 95
    assert cfg["m"] == 150
    assert cfg["n"] == 12
    assert cfg["r_frac"] == 0.02
    assert cfg["big_r_frac"] == 0.05
    grid = cfg["alpha_grid"]
    assert 0.03 in grid and 0.09 in grid
    assert cfg["cmc_rank_frac"] == 0.01  # K = 1% of vertices
    assert cfg["ball_radius_frac"] == 0.01


def test_config_unknown_key_rejected():
    with pytest.raises(ParseError):
        parse_config_text("[spectral]\nbogus = 1\n")
    with pytest.raises(ParseError):
        parse_config_text("[nosection]\ns = 1\n")
    # a real key under another key's section
    with pytest.raises(ParseError, match=r"unknown key 'm' in \[spectral\]"):
        parse_config_text("[spectral]\nm = 5\n")


def test_config_key_set_twice_rejected():
    with pytest.raises(ParseError, match=r"^line 3: key 's' already set on line 2$"):
        parse_config_text("[spectral]\ns = 40\ns = 30\n")
    # also across a repeated section, counting comment and blank lines
    with pytest.raises(ParseError, match=r"^line 7: key 's' already set on line 2$"):
        parse_config_text("[spectral]\ns = 40\n[basis]\nm = 8\n\n[spectral]  # again\ns = 30\n")


def test_config_override_unique_keys():
    cfg = parse_config_text("")
    cfg.override("s", "55")
    assert cfg["s"] == 55
    with pytest.raises(DataError):
        cfg.override("not_a_key", "1")


def test_config_flat_keys_are_unique():
    # a dict literal keeps the later of two equal keys, so read the source
    source = Path(specdesc.config.__file__).read_text()
    [table] = [node.value for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SETTINGS"]
    keys = [key.value for key in table.keys]
    assert len(keys) == len(set(keys)) == len(SETTINGS)


def test_manifest_roundtrip(mini_corpus):
    entries = read_manifest(mini_corpus / "corpus" / "manifest.csv")
    ids = {e.shape_id for e in entries}
    assert "dumbbell" in ids and "multisphere" in ids
    splits = {e.split for e in entries}
    assert {"train", "val", "train_neg", "val_neg", "eval", "eval_neg"} <= splits


def test_manifest_header_names_may_be_padded(tmp_path):
    # the header check strips each name, so a padded header is accepted and
    # its rows read like any other
    path = tmp_path / "manifest.csv"
    path.write_text("shape_id, path ,class_label,split,null_id,corr_path,sym_path\n"
                    "a,a.off,c,train,,,\n")
    [entry] = read_manifest(path)
    assert (entry.shape_id, entry.path, entry.split) == ("a", "a.off", "train")


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_deterministic(tmp_path):
    spec = SyntheticCorpusSpec(base_shapes=("dumbbell",), deformations=("jitter",),
                               strengths=2, rng_seed=9)
    generate_corpus(spec, tmp_path / "a")
    generate_corpus(spec, tmp_path / "b")
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                           shallow=False), name


def test_strength_zero_is_identity(tmp_path):
    shape = multi_sphere(n_seg=24, n_rows=25)
    mesh = shape.mesh()
    for deformed in (bend(mesh, shape.joints, 0), rigid_motion(mesh, 0)):
        a, b = tmp_path / "null.off", tmp_path / "deformed.off"
        save_off(mesh, a)
        save_off(deformed, b)
        assert a.read_bytes() == b.read_bytes()


def test_jitter_strength_scales_displacement(mini_corpus):
    null = load_mesh(mini_corpus / "corpus" / "dumbbell.off")
    diameter = intrinsic_diameter(null, 32)
    for strength in (1, 2):
        moved = load_mesh(mini_corpus / "corpus" / f"dumbbell_jitter_{strength}.off")
        measured = (moved.vertices - null.vertices).std()
        expected = strength * 0.001 * diameter
        assert measured == pytest.approx(expected, rel=0.1)


def test_correspondence_files_valid(mini_corpus):
    null = load_mesh(mini_corpus / "corpus" / "multisphere.off")
    corr = load_index_map(mini_corpus / "corpus" / "multisphere_jitter_1.corr", "corr",
                          null.n_vertices, null.n_vertices)
    np.testing.assert_array_equal(corr, np.arange(null.n_vertices))


@pytest.mark.parametrize("tag", ["corr", "sym"])
def test_index_map_truncated(tmp_path, tag):
    path = tmp_path / f"shape.{tag}"
    save_index_map(np.array([2, -1, 0, 1]), path, tag)
    np.testing.assert_array_equal(load_index_map(path, tag, 4, 4), [2, -1, 0, 1])
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(DataError, match="truncated"):
        load_index_map(path, tag, 4, 4)
    with pytest.raises(DataError, match="not a"):
        load_index_map(path, "sym" if tag == "corr" else "corr", 4, 4)
    for text in (f"{tag} x\n0\n", f"{tag} 2\n0\nfoo\n"):
        path.write_text(text)
        with pytest.raises(DataError, match=f"{path.name}: .* non-integer"):
            load_index_map(path, tag, 2, 2)
    path.write_bytes(f"{tag} 1\n\xe9\n".encode("latin-1"))
    with pytest.raises(ParseError) as caught:
        load_index_map(path, tag, 1, 1)
    at = len(f"{tag} 1\n")
    assert str(caught.value) == f"{path}: not UTF-8 text (invalid continuation byte at byte {at})"


def test_full_deformation_taxonomy(tmp_path):
    # every supported deformation kind produces a valid mesh with an exact
    # correspondence back to the null shape
    spec = SyntheticCorpusSpec(
        base_shapes=("dumbbell",),
        deformations=("rigid", "bend", "jitter", "holes", "decimate"),
        strengths=1,
    )
    entries = generate_corpus(spec, tmp_path / "all")
    ids = {e.shape_id for e in entries}
    assert {
        "dumbbell", "dumbbell_rigid_1", "dumbbell_bend_1", "dumbbell_jitter_1",
        "dumbbell_holes_1", "dumbbell_decimate_1",
    } <= ids
    null = load_mesh(tmp_path / "all" / "dumbbell.off")
    for e in entries:
        if not e.corr_path:
            continue
        mesh = load_mesh(tmp_path / "all" / e.path)
        corr = load_index_map(tmp_path / "all" / e.corr_path, "corr",
                              mesh.n_vertices, null.n_vertices)
        assert len(corr) == mesh.n_vertices
        if "decimate" in e.shape_id:
            # decimated vertices coincide bitwise with their fine partners
            np.testing.assert_array_equal(mesh.vertices, null.vertices[corr])


GOLDEN_CORPUS_SPECS = {
    "default": SyntheticCorpusSpec(),
    "dumbbell_taxonomy": SyntheticCorpusSpec(
        base_shapes=("dumbbell",),
        deformations=("rigid", "bend", "jitter", "holes", "decimate"),
        strengths=1,
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_CORPUS_SPECS))
def test_corpus_matches_golden_digests(tmp_path, name):
    # SHA-256 of every file the generator writes: meshes, index maps, manifest
    golden = json.loads((Path(__file__).parent / "golden_corpus.json").read_text())[name]
    generate_corpus(GOLDEN_CORPUS_SPECS[name], tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())}
    assert digests == golden


def test_synth_cli_strength_default_is_five(tmp_path):
    assert run(["synth", "--out", tmp_path / "c", "--deformations", "jitter"]) == 0
    entries = read_manifest(tmp_path / "c" / "manifest.csv")
    strengths = {
        int(e.shape_id.rsplit("_", 1)[1])
        for e in entries
        if e.shape_id.startswith("triblob_jitter")
    }
    assert strengths == {1, 2, 3, 4, 5}


# ---------------------------------------------------------------------------
# spectrum command and caching
# ---------------------------------------------------------------------------


def test_spectrum_cache_hit_and_corruption(mini_corpus, caplog):
    config = mini_corpus / "config.cfg"
    assert run(["spectrum", "--config", config]) == 0
    with caplog.at_level(logging.INFO, logger="specdesc"):
        assert run(["spectrum", "--config", config]) == 0
    hits = [r for r in caplog.records if "cache hit" in r.message]
    assert len(hits) == len(read_manifest(mini_corpus / "corpus" / "manifest.csv"))

    victim = next((mini_corpus / "corpus" / "spectra").glob("dumbbell.*.spec"))
    victim.write_bytes(victim.read_bytes()[:100])
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="specdesc"):
        assert run(["spectrum", "--config", config]) == 0
    assert any("recomputing" in r.message for r in caplog.records)


def test_spectrum_cache_rejects_other_shapes_file(mini_corpus, tmp_path, caplog):
    cfg = parse_config(mini_corpus / "config.cfg")
    ws = Workspace(cfg, cache_dir=tmp_path)
    dumbbell, torus = ws.entry("dumbbell"), ws.entry("torus")
    expected = ws.spectrum(torus)
    ws.spectrum(dumbbell)
    torus_file = next(tmp_path.glob("torus.*.spec"))
    torus_file.write_bytes(next(tmp_path.glob("dumbbell.*.spec")).read_bytes())
    with caplog.at_level(logging.INFO, logger="specdesc"):
        again = Workspace(cfg, cache_dir=tmp_path).spectrum(torus)
    messages = [r.getMessage() for r in caplog.records]
    assert any("different mesh" in m for m in messages)
    assert any("computed spectrum for torus" in m for m in messages)
    np.testing.assert_array_equal(again.eigenfunctions, expected.eigenfunctions)
    # the header digest is the SHA-256 of the mesh file
    digest = hashlib.sha256((mini_corpus / "corpus" / "torus.off").read_bytes()).digest()
    assert torus_file.read_bytes()[17:49] == digest


def counted_solves(monkeypatch):
    """Patch the CLI's eigensolver to record the vertex count of each solve."""
    import specdesc.cli

    solves = []
    real = specdesc.cli.compute_spectrum

    def counted(op, count):
        solves.append(op.n_vertices)
        return real(op, count)

    monkeypatch.setattr(specdesc.cli, "compute_spectrum", counted)
    return solves


def test_cold_run_solves_each_shape_once(mini_corpus, tmp_path, monkeypatch):
    solves = counted_solves(monkeypatch)
    cache = tmp_path / "cache"
    common = ["--config", mini_corpus / "config.cfg", "--spectrum-cache", cache]
    assert run(["spectrum", *common]) == 0
    assert run(["train", *common, "--out", tmp_path / "train"]) == 0
    assert run(["describe", *common, "--family", "learned",
                "--model", tmp_path / "train" / "model.json", "--out", tmp_path / "desc"]) == 0
    n_shapes = len(read_manifest(mini_corpus / "corpus" / "manifest.csv"))
    assert len(solves) == n_shapes
    assert len(list(cache.glob("*.spec"))) == n_shapes


def test_cold_train_parses_each_mesh_once(mini_corpus, tmp_path, monkeypatch):
    # a cold solve takes the mesh the workspace holds for the pair sampler
    # instead of parsing it again
    parsed = []
    real = specdesc.cli.load_mesh

    def counted(path):
        parsed.append(Path(path).name)
        return real(path)

    monkeypatch.setattr(specdesc.cli, "load_mesh", counted)
    solves = counted_solves(monkeypatch)
    assert run(["train", "--config", mini_corpus / "config.cfg", "--spectrum-cache",
                tmp_path / "cache", "--out", tmp_path / "train"]) == 0
    used = [e.path for e in read_manifest(mini_corpus / "corpus" / "manifest.csv")
            if e.split in ("train", "train_neg", "val", "val_neg")]
    assert sorted(parsed) == sorted(used)
    assert len(solves) == len(used)


def live_spectra(monkeypatch):
    """Patch the CLI's spectrum loader and solver to count the spectra they
    made that are still alive; returns the count after each one was made."""
    import specdesc.cli

    alive, counts = [0], []

    def released():
        alive[0] -= 1

    def counted(real):
        def make(*args, **kwargs):
            spectrum = real(*args, **kwargs)
            alive[0] += 1
            counts.append(alive[0])
            weakref.finalize(spectrum, released)
            return spectrum
        return make

    for name in ("load_spectrum", "compute_spectrum"):
        monkeypatch.setattr(specdesc.cli, name, counted(getattr(specdesc.cli, name)))
    return counts


def test_commands_hold_one_shape_spectrum_at_a_time(mini_corpus, tmp_path, monkeypatch):
    counts = live_spectra(monkeypatch)
    common = ["--config", mini_corpus / "config.cfg", "--spectrum-cache", tmp_path / "cache"]
    n_shapes = len(read_manifest(mini_corpus / "corpus" / "manifest.csv"))
    assert run(["spectrum", *common]) == 0  # a cold cache: every spectrum is solved
    assert run(["train", *common, "--out", tmp_path / "train"]) == 0
    model = tmp_path / "train" / "model.json"
    for family in ("hks", "learned"):
        assert run(["describe", *common, "--family", family, "--model", model,
                    "--out", tmp_path / family]) == 0
    # the train shapes are read for the basis cutoff and again for their vectors
    assert len(counts) > 3 * n_shapes
    # no earlier entry is alive while the next one is made
    assert max(counts) == 1


def test_no_entry_is_alive_while_the_next_is_read(mini_pipeline, tmp_path, monkeypatch):
    """The entry served for one shape, and every view of its arrays, is dead
    when load_spectrum runs for the next shape: in the workspace, for count
    and cutoff requests, and in the commands that read many entries."""
    import specdesc.cli

    real = specdesc.cli.load_spectrum
    served = []  # weak references to each entry read and to its array buffer

    def load(*args):
        assert all(ref() is None for ref in served), "an earlier entry is alive"
        spectrum = real(*args)
        served.extend([weakref.ref(spectrum), weakref.ref(spectrum.eigenfunctions.base)])
        return spectrum

    monkeypatch.setattr(specdesc.cli, "load_spectrum", load)
    ws = Workspace(parse_config(mini_pipeline / "config.cfg"))
    first, second, third = ws.entries[:3]
    ws.spectrum(first)
    ws.spectrum(second)
    ws.spectrum(third, nu=1e-9)  # reached: the whole entry is served
    ws.spectrum(first, nu=1e-9)  # read again
    assert len(served) == 8
    del ws
    common = ["--config", mini_pipeline / "config.cfg"]
    model = mini_pipeline / "train" / "model.json"
    assert run(["train", *common, "--out", tmp_path / "train"]) == 0
    for family in ("hks", "learned"):
        assert run(["describe", *common, "--family", family, "--model", model,
                    "--out", tmp_path / family]) == 0


def test_short_cache_entry_grows_once(mini_corpus, tmp_path, monkeypatch):
    cfg = parse_config(mini_corpus / "config.cfg")
    torus = Workspace(cfg, cache_dir=tmp_path).entry("torus")
    Workspace(cfg, cache_dir=tmp_path).spectrum(torus, 4)
    [path] = tmp_path.glob("torus.*.spec")
    mesh_hash = hashlib.sha256((mini_corpus / "corpus" / "torus.off").read_bytes()).hexdigest()
    short = load_spectrum(path, mesh_hash, "lumped")
    nu = 2.0 * float(short.eigenvalues[-1])

    solves = counted_solves(monkeypatch)
    grown = Workspace(cfg, cache_dir=tmp_path).spectrum(torus, nu=nu)
    assert len(solves) == 1
    assert len(grown) > len(short) and grown.eigenvalues[-1] >= nu
    assert list(tmp_path.glob("torus.*.spec")) == [path]
    replaced = load_spectrum(path, mesh_hash, "lumped")
    np.testing.assert_array_equal(replaced.eigenfunctions, grown.eigenfunctions)
    # the configured count is now a prefix of the longer entry: no solve
    served = Workspace(cfg, cache_dir=tmp_path).spectrum(torus)
    assert len(solves) == 1
    np.testing.assert_array_equal(served.eigenvalues, grown.eigenvalues[: len(served)])


def test_spectrum_cache_dir_flag(mini_corpus, tmp_path):
    cache = tmp_path / "mycache"
    assert run(["spectrum", "--config", mini_corpus / "config.cfg",
                "--spectrum-cache", cache]) == 0
    assert list(cache.glob("*.spec"))


def test_missing_config_is_data_error():
    assert run(["spectrum", "--config", "/nonexistent.cfg"]) == 3


def test_config_key_set_twice_is_data_error(mini_corpus, tmp_path, caplog):
    config = tmp_path / "twice.cfg"
    config.write_text(f"[shapes]\nmanifest = {mini_corpus / 'corpus' / 'manifest.csv'}\n"
                      "[spectral]\ns = 40\ns = 30\n")
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        assert run(["spectrum", "--config", config, "--spectrum-cache", tmp_path]) == 3
    assert [r.getMessage() for r in caplog.records] == [
        f"{config}: line 5: key 's' already set on line 4"]
    assert not list(tmp_path.glob("*.spec"))


def test_bad_override_is_usage_error(mini_corpus):
    config = mini_corpus / "config.cfg"
    assert run(["spectrum", "--config", config, "--bogus_key", "1"]) == 2


@pytest.mark.parametrize("count", ["0", "-3"])
def test_nonpositive_pair_count_is_data_error(mini_corpus, tmp_path, caplog, count):
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        assert run(["spectrum", "--config", mini_corpus / "config.cfg",
                    "--spectrum-cache", tmp_path, "--s", count]) == 3
    assert any(f"s={count} must be at least 1" in r.getMessage() for r in caplog.records)
    assert not list(tmp_path.glob("*.spec"))  # rejected before the first solve


def test_repeated_override_is_usage_error(mini_corpus, tmp_path, caplog):
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        assert run(["spectrum", "--config", mini_corpus / "config.cfg",
                    "--spectrum-cache", tmp_path, "--s", "40", "--n", "2", "--s", "30"]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == ["bad override: --s given more than once"]
    assert not list(tmp_path.glob("*.spec"))


def test_override_applies(mini_corpus, caplog):
    config = mini_corpus / "config.cfg"
    with caplog.at_level(logging.INFO, logger="specdesc"):
        assert run(["spectrum", "--config", config, "--s", "10"]) == 0
    assert any("s=10" in r.getMessage() for r in caplog.records)


# ---------------------------------------------------------------------------
# describe / train / eval / match
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mini_pipeline(mini_corpus):
    config = mini_corpus / "config.cfg"
    desc = mini_corpus / "desc"
    assert run(["train", "--config", config, "--out", mini_corpus / "train"]) == 0
    for family in ("hks", "wks", "shapedna"):
        assert run(["describe", "--config", config, "--family", family,
                    "--out", desc]) == 0
    assert run(["describe", "--config", config, "--family", "learned",
                "--model", mini_corpus / "train" / "model.json",
                "--out", desc]) == 0
    return mini_corpus


@pytest.fixture
def pipeline_copy(mini_pipeline, tmp_path):
    """Writable copy of the mini corpus, its warm spectrum cache and its
    descriptor files."""
    shutil.copytree(mini_pipeline / "corpus", tmp_path / "corpus")
    shutil.copytree(mini_pipeline / "desc", tmp_path / "desc")
    shutil.copy(mini_pipeline / "config.cfg", tmp_path / "config.cfg")
    return tmp_path


def test_warm_describe_parses_no_mesh(mini_pipeline, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a warm describe parses no mesh and assembles no operator")

    monkeypatch.setattr("specdesc.cli.load_mesh", refuse)
    monkeypatch.setattr("specdesc.cli.assemble_fem", refuse)
    config = mini_pipeline / "config.cfg"
    for family in DESCRIPTOR_FAMILIES:
        model = ["--model", mini_pipeline / "train" / "model.json"] if family == "learned" else []
        assert run(["describe", "--config", config, "--family", family, *model,
                    "--out", tmp_path]) == 0
    expected = sorted((mini_pipeline / "desc").glob("*.dsc"))
    assert len(expected) == 4 * len(read_manifest(mini_pipeline / "corpus" / "manifest.csv"))
    assert sorted(p.name for p in tmp_path.glob("*.dsc")) == [p.name for p in expected]
    for path in expected:
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


def fresh_interpreter(script: str, blas_threads=None) -> str:
    """The last line `script` prints in a fresh interpreter that imports this
    copy of specdesc, with OPENBLAS_NUM_THREADS unset or set to `blas_threads`."""
    src = str(Path(specdesc.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def scipy_modules_after(script: str) -> list[str]:
    """The scipy modules loaded once `script` has run in a fresh interpreter."""
    probe = script + "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    return ast.literal_eval(fresh_interpreter(probe))


BLAS_PROBE = """
import ctypes
threads = {}
for path in sorted({l.split()[-1] for l in open("/proc/self/maps") if "openblas" in l}):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, name):
            threads[path.rsplit("/", 1)[-1]] = getattr(lib, name)()
print(threads)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
@pytest.mark.parametrize("preset", [None, "2"])
def test_blas_threads_default_to_one(preset):
    """Every loaded OpenBLAS, numpy's and the one scipy loads for its solvers,
    runs one thread unless OPENBLAS_NUM_THREADS was set; a set value is kept."""
    with_specdesc = ast.literal_eval(fresh_interpreter(
        "import specdesc.cli, scipy.linalg" + BLAS_PROBE, preset))
    assert len(with_specdesc) >= 2  # numpy's and scipy's copies
    if preset is None:
        assert set(with_specdesc.values()) == {1}
    else:  # what OpenBLAS itself makes of the preset on this host
        assert with_specdesc == ast.literal_eval(fresh_interpreter(
            "import numpy, scipy.linalg" + BLAS_PROBE, preset))


def test_cli_spectrum_bytes_equal_in_process_solve(mini_corpus, tmp_path):
    cache = tmp_path / "cli"
    config = mini_corpus / "config.cfg"
    fresh_interpreter("import sys\nfrom specdesc.cli import main\n"
                      f"assert main(['spectrum', '--config', {str(config)!r}, "
                      f"'--spectrum-cache', {str(cache)!r}]) == 0\nprint('ok')")
    entries = read_manifest(mini_corpus / "corpus" / "manifest.csv")
    written = {path.name.split(".")[0]: path for path in cache.glob("*.spec")}
    assert sorted(written) == sorted(e.shape_id for e in entries)
    count = parse_config(config)["s"]
    for entry in entries:
        mesh_path = mini_corpus / "corpus" / entry.path
        mesh = load_mesh(mesh_path)
        spectrum = compute_spectrum(assemble_fem(mesh), min(_solve_count(count), mesh.n_vertices))
        ours = tmp_path / f"{entry.shape_id}.spec"
        save_spectrum(spectrum, hashlib.sha256(mesh_path.read_bytes()).hexdigest(), ours)
        assert ours.read_bytes() == written[entry.shape_id].read_bytes(), entry.shape_id


def test_cli_import_loads_no_scipy():
    assert scipy_modules_after("import sys, specdesc.cli") == []


@pytest.mark.parametrize("family", ["hks", "learned"])
def test_warm_describe_loads_no_scipy(mini_pipeline, tmp_path, family):
    argv = ["describe", "--config", mini_pipeline / "config.cfg", "--family", family,
            "--out", tmp_path]
    if family == "learned":
        argv += ["--model", mini_pipeline / "train" / "model.json"]
    script = f"import sys, specdesc.cli\nassert specdesc.cli.main({[str(a) for a in argv]!r}) == 0"
    assert scipy_modules_after(script) == []
    assert len(list(tmp_path.glob(f"*.{family}.dsc"))) == len(
        read_manifest(mini_pipeline / "corpus" / "manifest.csv"))


def test_match_loads_no_scipy(mini_pipeline, tmp_path):
    argv = ["match", "--config", mini_pipeline / "config.cfg",
            "--descriptors", f"hks={mini_pipeline / 'desc'}", "--source", "multisphere",
            "--target", "multisphere_jitter_1", "--out", tmp_path]
    script = f"import sys, specdesc.cli\nassert specdesc.cli.main({[str(a) for a in argv]!r}) == 0"
    assert scipy_modules_after(script) == []
    assert (tmp_path / "matches.csv").is_file()


def test_damaged_cache_values_are_recomputed(pipeline_copy, caplog):
    """NaN in one eigenvalue, a flipped exponent bit in another: both entries
    load as unusable, are solved again, and the new entries equal fresh solves."""
    cache = pipeline_copy / "corpus" / "spectra"
    first = 8 + struct.calcsize("<IIB32s")  # eigenvalues follow magic and header
    damage = {"icosphere": 5, "torus": 10}  # shape -> damaged eigenvalue
    for shape, k in damage.items():
        [entry] = cache.glob(f"{shape}.*.spec")
        raw = bytearray(entry.read_bytes())
        at = first + 8 * k
        if shape == "icosphere":
            raw[at:at + 8] = struct.pack("<d", np.nan)
        else:
            raw[at + 7] ^= 0x40  # the top exponent bit of a little-endian double
        entry.write_bytes(bytes(raw))
    config = pipeline_copy / "config.cfg"
    with caplog.at_level(logging.INFO, logger="specdesc"):
        assert run(["describe", "--config", config, "--family", "hks",
                    "--out", pipeline_copy / "out"]) == 0
    messages = [r.getMessage() for r in caplog.records]
    assert any("spectrum cache unusable for icosphere" in m and "non-finite" in m
               for m in messages)
    assert any("spectrum cache unusable for torus" in m and "ascending" in m
               for m in messages)
    cfg = parse_config(config)
    fresh = Workspace(cfg, cache_dir=pipeline_copy / "fresh")
    for shape in damage:
        fresh.spectrum(fresh.entry(shape))
        [rewritten] = cache.glob(f"{shape}.*.spec")
        assert rewritten.read_bytes() == (fresh.cache_dir / rewritten.name).read_bytes()


def test_header_only_cache_entry_is_recomputed(pipeline_copy, caplog):
    """An entry of magic, header and the mesh's own hash, with no vertices
    and no pairs (49 bytes), is damage: it is solved again, not served."""
    [entry] = (pipeline_copy / "corpus" / "spectra").glob("icosphere.*.spec")
    raw = entry.read_bytes()
    entry.write_bytes(raw[:8] + struct.pack("<II", 0, 0) + raw[16:8 + struct.calcsize("<IIB32s")])
    assert entry.stat().st_size == 49
    config = pipeline_copy / "config.cfg"
    with caplog.at_level(logging.INFO, logger="specdesc"):
        assert run(["describe", "--config", config, "--family", "hks",
                    "--out", pipeline_copy / "out"]) == 0
    assert any("spectrum cache unusable for icosphere" in m and "0 pairs for 0 vertices" in m
               for m in (r.getMessage() for r in caplog.records))
    cfg = parse_config(config)
    mesh_hash = hashlib.sha256((pipeline_copy / "corpus" / "icosphere.off").read_bytes())
    spectrum = load_spectrum(entry, mesh_hash.hexdigest(), "lumped")
    assert spectrum.n_vertices == load_mesh(pipeline_copy / "corpus" / "icosphere.off").n_vertices
    assert len(spectrum) >= cfg["s"]
    assert (pipeline_copy / "out" / "icosphere.hks.dsc").is_file()


def test_cache_entry_of_another_mass_mode_is_recomputed(pipeline_copy, caplog):
    """A lumped entry whose mass mode tag (header byte 16) reads consistent
    is not served as a hit: it is logged as unusable and solved again."""
    [entry] = (pipeline_copy / "corpus" / "spectra").glob("torus.*.spec")
    raw = bytearray(entry.read_bytes())
    assert raw[16] == 0
    raw[16] = 1
    entry.write_bytes(bytes(raw))
    with caplog.at_level(logging.INFO, logger="specdesc"):
        assert run(["describe", "--config", pipeline_copy / "config.cfg", "--family", "hks",
                    "--out", pipeline_copy / "out"]) == 0
    messages = [r.getMessage() for r in caplog.records]
    assert not any(m.startswith("spectrum cache hit for torus ") for m in messages)
    assert any(m.startswith("spectrum cache unusable for torus ")
               and m.endswith("is not lumped (mass mode tag 1)); recomputing") for m in messages)
    assert entry.read_bytes()[16] == 0
    assert (pipeline_copy / "out" / "torus.hks.dsc").is_file()


def test_warm_describe_missing_mesh_is_data_error(pipeline_copy, caplog):
    mesh = pipeline_copy / "corpus" / "torus.off"
    mesh.unlink()
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run(["describe", "--config", pipeline_copy / "config.cfg",
                    "--family", "hks", "--out", pipeline_copy / "out"])
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == [f"{mesh}: cannot read mesh file: No such file or directory"]


def test_describe_dimension_defaults(mini_pipeline):
    values = load_descriptor_binary(mini_pipeline / "desc" / "dumbbell.hks.dsc", "hks")
    assert values.shape[1] == 3  # [descriptor] n from the config


def test_describe_unknown_family_usage_error(mini_corpus):
    assert run(["describe", "--config", mini_corpus / "config.cfg",
                "--family", "wavelets", "--out", mini_corpus / "x"]) == 2


def test_describe_learned_needs_model(mini_corpus):
    assert run(["describe", "--config", mini_corpus / "config.cfg",
                "--family", "learned", "--out", mini_corpus / "x"]) == 3


def test_train_writes_report_and_model(mini_pipeline):
    report = (mini_pipeline / "train" / "training_report.csv").read_text()
    assert report.startswith("#")  # provenance note for the moment estimate
    header = report.splitlines()[1]
    assert header == "alpha,fn_at_fixed_fp,fp_at_fixed_fn,achieved_n"
    assert (mini_pipeline / "train" / "model.json").exists()


def test_train_deterministic_model_bytes(mini_pipeline):
    config = mini_pipeline / "config.cfg"
    assert run(["train", "--config", config, "--out", mini_pipeline / "train2"]) == 0
    assert (mini_pipeline / "train" / "model.json").read_bytes() == (
        mini_pipeline / "train2" / "model.json"
    ).read_bytes()


@pytest.mark.parametrize("key, value", [
    ("refs_per_shape", "-1"),
    ("negatives_per_ref", "-5"),
    ("cross_negatives_per_ref", "-2"),
    ("positives_per_ref", "0"),
    ("nu_max_percentile", "150"),
    ("nu_max_percentile", "nan"),
    ("alpha", "abc"),
    ("diameter_samples", "1"),
    ("rng_seed", "-1"),
    ("big_r_frac", "-1"),
])
def test_train_bad_sampling_setting_is_data_error(mini_pipeline, tmp_path, caplog, key, value):
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run(["train", "--config", mini_pipeline / "config.cfg", "--out", tmp_path,
                    f"--{key}", value])
    assert code == 3
    assert names_setting(caplog, key, value)


def names_setting(caplog, key, value) -> bool:
    """Whether an error log line holds `key=value` under that key's own name,
    not as the tail of a longer key (negatives_per_ref in
    eval_negatives_per_ref) or as the head of a longer value."""
    pattern = re.compile(rf"(?<!\w){re.escape(key)}={re.escape(value)}(?![\w.])")
    return any(pattern.search(r.getMessage()) for r in caplog.records
               if r.levelno == logging.ERROR)


def test_bad_radii(mini_corpus, tmp_path, caplog):
    # r_frac must lie below big_r_frac (default 0.05); the message names both
    for value in ("0.1", "0.05"):
        caplog.clear()
        with caplog.at_level(logging.ERROR, logger="specdesc"):
            code = run(["train", "--config", mini_corpus / "config.cfg", "--r_frac", value,
                        "--out", tmp_path / "out", "--spectrum-cache", tmp_path / "spectra"])
        assert code == 3
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] == [
            f"r_frac={value} must be below big_r_frac=0.05"]
    assert not list(tmp_path.iterdir())


def test_defaults_pass_their_own_rules():
    parse_config_text("").check()


INTEGER_KEYS = [key for key, (_, _, kind, _) in SETTINGS.items() if kind is int]


@pytest.mark.parametrize("key", INTEGER_KEYS)
@pytest.mark.parametrize("value", ["2.5", "1e3", ""])
def test_integer_setting_must_be_integer(key, value):
    cfg = parse_config_text("")
    cfg.override(key, value)
    with pytest.raises(DataError, match=f"^{key}={re.escape(value)} must be an integer$"):
        cfg.check()


# a bad value of each sampling count and of the seed; the counts are tried
# under their eval_ names too (eval_rng_seed has its own case)
SAMPLING_VALUES = [("refs_per_shape", "-1"), ("positives_per_ref", "0"),
                   ("negatives_per_ref", "-5"), ("cross_negatives_per_ref", "-2"),
                   ("rng_seed", "-1")]
# each integer setting given as a decimal, under a command that reads it
DECIMAL_CASES = [
    (["describe", "--family", "hks"], "s", "2.5"), (["describe", "--family", "hks"], "n", "2.5"),
    (["train"], "m", "4.5"), (["train"], "diameter_samples", "2.5"),
    (["eval", "--descriptors", "hks={desc}"], "cmc_refs", "1e3"),
    *((["train"], key, "1.5") for key, _ in SAMPLING_VALUES),
    *((["eval", "--descriptors", "hks={desc}"], f"eval_{key}", "1.5")
      for key, _ in SAMPLING_VALUES),
]


@pytest.mark.parametrize("command, key, value", [
    pytest.param(["describe", "--family", "wks"], "wks_sigma", "abc", id="describe-wks_sigma"),
    pytest.param(["eval", "--descriptors", "hks={desc}"], "cmc_refs", "0", id="eval-cmc_refs"),
    pytest.param(["eval", "--descriptors", "hks={desc}"], "ball_radius_frac", "-1",
                 id="eval-ball_radius_frac-negative"),
    pytest.param(["eval", "--descriptors", "hks={desc}"], "ball_radius_frac", "nan",
                 id="eval-ball_radius_frac-nan"),
    pytest.param(["eval", "--descriptors", "hks={desc}"], "work_point", "0", id="eval-work_point"),
    pytest.param(["eval", "--descriptors", "hks={desc}"], "cmc_rank_frac", "2",
                 id="eval-cmc_rank_frac"),
    pytest.param(["eval", "--descriptors", "hks={desc}"], "eval_rng_seed", "-1",
                 id="eval-eval_rng_seed"),
    pytest.param(["describe", "--family", "wks"], "wks_sigma", "-1", id="describe-wks_sigma-negative"),
    pytest.param(["describe", "--family", "hks"], "hks_times", "-1", id="describe-hks_times"),
    pytest.param(["describe", "--family", "hks"], "n", "0", id="describe-n"),
    pytest.param(["describe", "--family", "hks"], "s", "0", id="describe-s"),
    pytest.param(["train"], "m", "3", id="train-m"),
    pytest.param(["train"], "ridge", "-1", id="train-ridge"),
    pytest.param(["train"], "work_point", "", id="train-work_point-empty"),
    pytest.param(["train"], "alpha", "1.5", id="train-alpha"),
    pytest.param(["train"], "alpha_grid", "0.1,nan", id="train-alpha_grid-nan"),
    pytest.param(["train"], "alpha_grid", "2,3", id="train-alpha_grid-range"),
    *(pytest.param(["train"], key, value, id=f"train-{key}") for key, value in SAMPLING_VALUES),
    *(pytest.param(["eval", "--descriptors", "hks={desc}"], f"eval_{key}", value,
                   id=f"eval-eval_{key}") for key, value in SAMPLING_VALUES[:4]),
    pytest.param(["train"], "diameter_samples", "1", id="train-diameter_samples"),
    pytest.param(["train"], "r_frac", "0", id="train-r_frac-zero"),
    pytest.param(["train"], "r_frac", "nan", id="train-r_frac-nan"),
    pytest.param(["train"], "r_frac", "0.05", id="train-r_frac-at-big_r_frac"),
    pytest.param(["train"], "big_r_frac", "0.01", id="train-big_r_frac-below-r_frac"),
    pytest.param(["describe", "--family", "hks"], "mode", "balanced", id="describe-mode"),
    pytest.param(["eval", "--descriptors", "hks={desc}"], "mode", "balanced", id="eval-mode"),
    pytest.param(["match", "--descriptors", "hks={desc}", "--source", "multisphere",
                  "--target", "multisphere_jitter_1"], "mode", "balanced", id="match-mode"),
    pytest.param(["train", "--alpha", "0.2"], "mode", "balanced", id="train-mode"),
    pytest.param(["eval", "--descriptors", "hks={desc}"], "mass_mode", "foo", id="eval-mass_mode"),
    pytest.param(["describe", "--family", "wks"], "wks_energies", "-1",
                 id="describe-wks_energies"),
    *(pytest.param(command, key, value, id=f"{command[0]}-{key}-decimal")
      for command, key, value in DECIMAL_CASES),
])
def test_bad_setting_is_data_error(mini_pipeline, tmp_path, caplog, command, key, value):
    command = [arg.format(desc=mini_pipeline / "desc") for arg in command]
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run([*command, "--config", mini_pipeline / "config.cfg", "--out", tmp_path / "out",
                    "--spectrum-cache", tmp_path / "spectra", f"--{key}", value])
    assert code == 3
    assert names_setting(caplog, key, value)
    # rejected before any solve or output: the cold cache gets no .spec file
    assert not list(tmp_path.iterdir())


# one setting of each number kind (int, float, None, list), each given a
# number that is not finite
NON_FINITE_CASES = [
    pytest.param(command, key, value, kind, id=f"{command[0]}-{key}-{value}")
    for command, key, kind in [(["describe", "--family", "hks"], "s", "an integer"),
                               (["train"], "ridge", "finite"),
                               (["describe", "--family", "wks"], "wks_sigma", "finite"),
                               (["describe", "--family", "hks"], "hks_times", "finite")]
    for value in ("inf", "-inf", "nan")
]


@pytest.mark.parametrize("command, key, value, kind", [
    pytest.param(["train"], "ridge", "1e-6,1e-5", "a number", id="train-ridge-list"),
    pytest.param(["eval", "--descriptors", "hks={desc}"], "ball_radius_frac", "0.01,0.02",
                 "a number", id="eval-ball_radius_frac-list"),
    pytest.param(["describe", "--family", "wks"], "wks_sigma", "abc", "a number",
                 id="describe-wks_sigma-word"),
    pytest.param(["describe", "--family", "hks"], "hks_times", "1,x", "a comma list of numbers",
                 id="describe-hks_times-word"),
    *NON_FINITE_CASES,
])
def test_setting_of_wrong_kind_fails_before_any_work(mini_pipeline, tmp_path, caplog,
                                                     monkeypatch, command, key, value, kind):
    def refuse(*args, **kwargs):
        raise AssertionError("a rejected setting opens no workspace")

    monkeypatch.setattr("specdesc.cli.Workspace", refuse)
    command = [arg.format(desc=mini_pipeline / "desc") for arg in command]
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run([*command, "--config", mini_pipeline / "config.cfg", "--out", tmp_path / "out",
                    "--spectrum-cache", tmp_path / "spectra", f"--{key}", value])
    assert code == 3
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR] == [
        f"{key}={value} must be {kind}"]
    assert not list(tmp_path.iterdir())


def test_eval_repeated_family_is_data_error(mini_pipeline, tmp_path, caplog):
    desc = mini_pipeline / "desc"
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run(["eval", "--config", mini_pipeline / "config.cfg",
                    "--descriptors", f"hks={desc}", f"wks={desc}", f"hks={tmp_path}",
                    "--out", tmp_path / "report"])
    assert code == 3
    assert any("family 'hks' more than once" in r.getMessage() for r in caplog.records)
    assert not (tmp_path / "report").exists()


def test_geometry_vectors_need_one_row_per_vertex(pipeline_copy, caplog):
    # a cache entry of the right mesh file whose eigenfunctions lack a row
    mesh_hash = hashlib.sha256((pipeline_copy / "corpus" / "dumbbell.off").read_bytes()).hexdigest()
    [path] = (pipeline_copy / "corpus" / "spectra").glob("dumbbell.*.spec")
    full = load_spectrum(path, mesh_hash, "lumped")
    save_spectrum(Spectrum(full.eigenvalues, full.eigenfunctions[:-1], full.mass_mode),
                  mesh_hash, path)
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run(["train", "--config", pipeline_copy / "config.cfg",
                    "--out", pipeline_copy / "train"])
    assert code == 3
    rows = load_spectrum(path, mesh_hash, "lumped").eigenfunctions.shape[0]
    assert any(r.getMessage() == f"shape dumbbell: {rows} vector rows for {rows + 1} vertices"
               for r in caplog.records)


def test_train_without_val_shapes_fails_first(pipeline_copy, caplog):
    manifest = pipeline_copy / "corpus" / "manifest.csv"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(line for line in lines
                                if line.split(",")[3] not in ("val", "val_neg")))
    with caplog.at_level(logging.INFO, logger="specdesc"):
        code = run(["train", "--config", pipeline_copy / "config.cfg",
                    "--out", pipeline_copy / "train"])
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == ["manifest has no val shapes"]
    # checked before any spectrum is read or pair sampled
    assert not [r for r in caplog.records if r.getMessage().startswith(("spectrum", "training"))]
    assert not (pipeline_copy / "train").exists()
    # a pinned alpha needs no val shapes
    assert run(["train", "--config", pipeline_copy / "config.cfg", "--alpha", "0.1",
                "--out", pipeline_copy / "train"]) == 0


def _val_of_one_class(line):
    # dumbbell_jitter_2 leaves val, and only flat_annulus shapes stay held out
    return line.replace(",val,", ",train,") if line.startswith("dumbbell_jitter_2,") else line


@pytest.mark.parametrize("command, edit, message", [
    ("train", _val_of_one_class, "the val and val_neg shapes are all of class 'flat_annulus'"),
    ("eval", lambda line: "" if line.startswith("torus") else line,
     "the eval and eval_neg shapes are all of class 'multisphere'"),
], ids=["train", "eval"])
def test_one_class_split_fails_before_work(pipeline_copy, caplog, monkeypatch,
                                           command, edit, message):
    manifest = pipeline_copy / "corpus" / "manifest.csv"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(map(edit, lines)))

    def refuse(*args):
        raise AssertionError("a spectrum or descriptor file was read")

    monkeypatch.setattr(Workspace, "spectrum", refuse)
    monkeypatch.setattr(specdesc.cli, "load_descriptor_binary", refuse)
    extra = ["--descriptors", f"hks={pipeline_copy / 'desc'}"] if command == "eval" else []
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run([command, "--config", pipeline_copy / "config.cfg", *extra,
                    "--out", pipeline_copy / "out"])
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == [f"cross-class negatives requested but {message}"]
    assert not (pipeline_copy / "out").exists()


def test_train_empty_alpha_forces_sweep(pipeline_copy):
    config = pipeline_copy / "config.cfg"
    pinned = pipeline_copy / "pinned.cfg"
    pinned.write_text(config.read_text().replace("[learning]\n", "[learning]\nalpha = 0.2\n"))
    reports = {}
    for name, argv in [("free", [config]), ("pinned", [pinned]),
                       ("swept", [pinned, "--alpha", ""])]:
        assert run(["train", "--config", *argv, "--out", pipeline_copy / name]) == 0
        reports[name] = (pipeline_copy / name / "training_report.csv").read_bytes()
    assert len(reports["pinned"].splitlines()) == 2  # note + header, no sweep
    assert reports["swept"] == reports["free"]
    assert len(reports["swept"].splitlines()) == 2 + 2  # one row per alpha


def test_sweep_alpha_is_no_command(mini_corpus, capsys):
    assert run(["sweep-alpha", "--config", mini_corpus / "config.cfg",
                "--out", mini_corpus / "sweep"]) == 2
    assert "invalid choice: 'sweep-alpha'" in capsys.readouterr().err
    assert not (mini_corpus / "sweep").exists()


def test_eval_missing_descriptor_file(mini_pipeline, caplog):
    config = mini_pipeline / "config.cfg"
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run(["eval", "--config", config,
                    "--descriptors", "hks=/nonexistent/dir",
                    "--out", mini_pipeline / "r"])
    assert code == 3
    first = next(e for e in read_manifest(mini_pipeline / "corpus" / "manifest.csv")
                 if e.split == "eval")
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == [f"/nonexistent/dir/{first.shape_id}.hks.dsc: cannot read descriptor "
                      "file: No such file or directory"]


def _rewrite_index_map(path, tag, edit):
    save_index_map(edit(np.array(path.read_text().split()[2:], dtype=np.int64)), path, tag)


BAD_INDEX_MAPS = {
    "non_integer_count": ("multisphere_jitter_1.corr", "non-integer",
                          lambda p: p.write_text("corr x\n0\n")),
    "short_corr": ("multisphere_jitter_1.corr", "entries for a shape with",
                   lambda p: _rewrite_index_map(p, "corr", lambda v: v[:-1])),
    "sym_out_of_range": ("torus.sym", "outside \\[-1, ",
                         lambda p: _rewrite_index_map(p, "sym", lambda v: v + 10**6)),
    "missing_sym": ("torus.sym", "cannot read", lambda p: p.unlink()),
}


@pytest.mark.parametrize("case", list(BAD_INDEX_MAPS))
def test_eval_rejects_bad_index_map(pipeline_copy, caplog, case):
    name, message, corrupt = BAD_INDEX_MAPS[case]
    path = pipeline_copy / "corpus" / name
    corrupt(path)
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run(["eval", "--config", pipeline_copy / "config.cfg",
                    "--descriptors", f"hks={pipeline_copy / 'desc'}",
                    "--out", pipeline_copy / "report"])
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors and errors[-1].startswith(f"{path}: ")
    assert re.search(message, errors[-1])


def test_eval_rejects_short_descriptor(pipeline_copy, caplog):
    path = pipeline_copy / "desc" / "torus.hks.dsc"
    values = load_descriptor_binary(path, "hks")
    save_descriptor_binary(values[:-1], "hks", path)
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run(["eval", "--config", pipeline_copy / "config.cfg",
                    "--descriptors", f"hks={pipeline_copy / 'desc'}",
                    "--out", pipeline_copy / "report"])
    assert code == 3
    assert any(r.getMessage().startswith(f"{path}: {len(values) - 1} rows for a mesh with")
               for r in caplog.records)


def _drop_column(desc):
    path = desc / "torus.hks.dsc"
    save_descriptor_binary(load_descriptor_binary(path, "hks")[:, :-1], "hks", path)
    # the family's first file is another shape's, with the configured 3 columns
    return path, "hks", r"2 columns, but \S+\.hks\.dsc has 3$"


def _other_family(desc):
    path = desc / "torus.wks.dsc"
    shutil.copy(desc / "torus.hks.dsc", path)
    return path, "wks", "holds 'hks' descriptors, not 'wks'"


def _non_utf8_family(desc):
    path = desc / "torus.hks.dsc"
    raw = bytearray(path.read_bytes())
    raw[raw.index(b"hks", 8)] ^= 0x80  # 'h' becomes a lone UTF-8 lead byte
    path.write_bytes(bytes(raw))
    return path, "hks", "descriptor family name is not UTF-8"


def _nan_value(desc):
    path = desc / "torus.hks.dsc"
    values = load_descriptor_binary(path, "hks")
    values[-1, 0] = np.nan
    save_descriptor_binary(values, "hks", path)
    return path, "hks", "descriptor file holds non-finite values"


BAD_DESCRIPTOR_FILES = {
    "dropped_column": _drop_column,
    "other_family": _other_family,
    "non_utf8_family": _non_utf8_family,
    "nan_value": _nan_value,
}


@pytest.mark.parametrize("case", list(BAD_DESCRIPTOR_FILES))
def test_eval_rejects_bad_descriptor_file(pipeline_copy, caplog, case):
    path, family, message = BAD_DESCRIPTOR_FILES[case](pipeline_copy / "desc")
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run(["eval", "--config", pipeline_copy / "config.cfg",
                    "--descriptors", f"{family}={pipeline_copy / 'desc'}",
                    "--out", pipeline_copy / "report"])
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors and errors[-1].startswith(f"{path}: ")
    assert re.search(message, errors[-1])


def test_eval_report_and_manifest(mini_pipeline):
    config = mini_pipeline / "config.cfg"
    out = mini_pipeline / "report"
    assert run(["eval", "--config", config,
                "--descriptors", f"hks={mini_pipeline / 'desc'}",
                f"wks={mini_pipeline / 'desc'}",
                "--out", out]) == 0
    manifest = (out / "manifest.txt").read_text().split()
    for name in manifest:
        assert (out / name).exists()
    # per family a ROC and a CMC curve; per family and map shape (the CMC
    # source and target, and the first eval_neg shape) a distance map
    assert manifest == [
        "roc_000.csv", "roc_000.svg", "roc_001.csv", "roc_001.svg",
        "cmc_000.csv", "cmc_000.svg", "cmc_001.csv", "cmc_001.svg",
        *(f"map_{i:03d}.{ext}" for i in range(6) for ext in ("csv", "off")),
        "roc_workpoints.csv", "cmc_rank1.csv",
    ]
    workpoints = (out / "roc_workpoints.csv").read_text().splitlines()
    assert workpoints[0] == "family,auc,tp_at_fp,tn_at_fn"
    assert len(workpoints) == 3


def test_eval_bad_last_family_leaves_no_report(pipeline_copy, caplog):
    # the last family's pass rejects the file, and the staged report of the
    # families before it is never committed
    path = pipeline_copy / "desc" / "torus.wks.dsc"
    values = load_descriptor_binary(path, "wks")
    save_descriptor_binary(values[:-1], "wks", path)
    out = pipeline_copy / "report"
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run(["eval", "--config", pipeline_copy / "config.cfg",
                    "--descriptors", f"hks={pipeline_copy / 'desc'}",
                    f"wks={pipeline_copy / 'desc'}", "--out", out])
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == [f"{path}: {len(values) - 1} rows for a mesh with {len(values)} vertices"]
    assert not out.exists()


def _overflowing_last_family(root):
    """Make every value of the last family's torus.wks.dsc under `root` 1e200:
    finite values that pass the checks, but whose pair distances overflow."""
    path = root / "desc" / "torus.wks.dsc"
    save_descriptor_binary(np.full_like(load_descriptor_binary(path, "wks"), 1e200), "wks", path)


def _eval_hks_wks(root, caplog):
    """Exit code and ERROR lines of an eval of hks then wks into root/report."""
    caplog.clear()
    with caplog.at_level(logging.ERROR, logger="specdesc"), np.errstate(over="ignore"):
        code = run(["eval", "--config", root / "config.cfg",
                    "--descriptors", f"hks={root / 'desc'}", f"wks={root / 'desc'}",
                    "--out", root / "report"])
    return code, [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]


def test_eval_failure_in_last_family_leaves_no_report(pipeline_copy, caplog):
    # the first family's files are staged by then, and go again
    _overflowing_last_family(pipeline_copy)
    code, errors = _eval_hks_wks(pipeline_copy, caplog)
    assert code == 3
    assert errors == [f"{pipeline_copy / 'desc'}: wks descriptors: distances must be finite"]
    assert not (pipeline_copy / "report").exists()


def test_failed_eval_rerun_leaves_the_old_report(pipeline_copy, caplog):
    out = pipeline_copy / "report"
    assert _eval_hks_wks(pipeline_copy, caplog) == (0, [])
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "manifest.txt" in before and len(before) > 20
    _overflowing_last_family(pipeline_copy)
    assert _eval_hks_wks(pipeline_copy, caplog)[0] == 3
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_eval_empty_cmc_ball_leaves_no_report(mini_pipeline, tmp_path, caplog, monkeypatch):
    # a centre always lies in its own ball, so the empty one is made here;
    # cmc rejects it in the first family's pass, after its ROC files exist
    real = specdesc.cli.geodesic_balls

    def one_empty(*args):
        balls = real(*args)
        balls[0][1] = False
        return balls

    monkeypatch.setattr(specdesc.cli, "geodesic_balls", one_empty)
    out = tmp_path / "report"
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run(["eval", "--config", mini_pipeline / "config.cfg",
                    "--descriptors", f"hks={mini_pipeline / 'desc'}", "--out", out])
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == ["reference 1: empty ground-truth ball"]
    assert not out.exists()


def test_eval_holds_one_family_fields_at_a_time(mini_pipeline, tmp_path, monkeypatch):
    real = specdesc.cli._load_family_fields
    loaded = []  # weak references to every field array handed out so far

    def spy(*args):
        assert all(ref() is None for ref in loaded), "an earlier family's fields are alive"
        fields = real(*args)
        loaded.extend(weakref.ref(values) for values in fields.values())
        return fields

    monkeypatch.setattr(specdesc.cli, "_load_family_fields", spy)
    desc = mini_pipeline / "desc"
    assert run(["eval", "--config", mini_pipeline / "config.cfg", "--descriptors",
                f"hks={desc}", f"wks={desc}", f"learned={desc}", "--out", tmp_path / "r"]) == 0
    assert loaded


def test_eval_stages_each_family_before_reading_the_next(mini_pipeline, tmp_path,
                                                       monkeypatch):
    # family k's files are staged before family k+1's first descriptor file
    # is read; each file is read once, besides the CMC source's file of the
    # family that gives the references
    out = tmp_path / "report"
    reads = []  # (family, names staged) per descriptor file read
    real = specdesc.cli.load_descriptor_binary

    def spy(path, family):
        staged = sorted(p.name for stage in out.glob(".staging.*") for p in stage.iterdir())
        reads.append((Path(path).name.split(".")[-2], staged))
        return real(path, family)

    monkeypatch.setattr(specdesc.cli, "load_descriptor_binary", spy)
    families = ["learned", "hks", "wks"]
    desc = mini_pipeline / "desc"
    assert run(["eval", "--config", mini_pipeline / "config.cfg", "--descriptors",
                *(f"{family}={desc}" for family in families), "--out", out]) == 0
    entries = read_manifest(mini_pipeline / "corpus" / "manifest.csv")
    n_eval = sum(e.split in ("eval", "eval_neg") for e in entries)
    assert len(reads) == len(families) * n_eval + 1
    assert reads[0] == ("learned", [])  # the CMC references, before any report file
    for k, family in enumerate(families[1:], start=1):
        first = next(staged for name, staged in reads if name == family)
        assert first == sorted([f"{kind}_{i:03d}.{ext}" for i in range(k)
                                for kind in ("roc", "cmc") for ext in ("csv", "svg")]
                               + [f"map_{j:03d}.{ext}" for j in range(3 * k)
                                  for ext in ("csv", "off")])


def test_eval_cmc_target_must_map_into_source(mini_pipeline, tmp_path, caplog):
    common = ["eval", "--config", mini_pipeline / "config.cfg",
              "--descriptors", f"hks={mini_pipeline / 'desc'}"]
    with caplog.at_level(logging.INFO, logger="specdesc"):
        code = run([*common, "--out", tmp_path / "torus", "--cmc_target", "torus_jitter_2"])
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors and errors[-1].startswith("cmc_target=torus_jitter_2: ")
    assert "null shape is torus" in errors[-1] and "multisphere" in errors[-1]
    # the pair is checked before any descriptor is read or pair sampled
    assert not [r for r in caplog.records if r.getMessage().startswith("eval triplets")]
    assert not (tmp_path / "torus").exists()
    assert run([*common, "--out", tmp_path / "ok", "--cmc_target", "multisphere_jitter_2"]) == 0


def test_eval_cmc_target_outside_eval_splits_fails_before_work(pipeline_copy, caplog):
    manifest = pipeline_copy / "corpus" / "manifest.csv"
    rows = [line.split(",") for line in manifest.read_text().splitlines()]
    for row in rows:
        if row[0] == "multisphere_jitter_2":
            row[3] = "val"  # split
    manifest.write_text("".join(",".join(row) + "\n" for row in rows))
    with caplog.at_level(logging.INFO, logger="specdesc"):
        code = run(["eval", "--config", pipeline_copy / "config.cfg",
                    "--descriptors", f"hks={pipeline_copy / 'desc'}",
                    "--out", pipeline_copy / "report", "--cmc_target", "multisphere_jitter_2"])
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == ["cmc_target=multisphere_jitter_2: in split val, not eval or eval_neg"]
    assert not [r for r in caplog.records if r.getMessage().startswith("eval triplets")]
    assert not (pipeline_copy / "report").exists()


def test_eval_cmc_target_without_correspondence_fails_before_work(pipeline_copy, caplog):
    manifest = pipeline_copy / "corpus" / "manifest.csv"
    rows = [line.split(",") for line in manifest.read_text().splitlines()]
    for row in rows:
        if row[0] == "multisphere_jitter_2":
            row[5] = ""  # corr_path
    manifest.write_text("".join(",".join(row) + "\n" for row in rows))
    with caplog.at_level(logging.INFO, logger="specdesc"):
        code = run(["eval", "--config", pipeline_copy / "config.cfg",
                    "--descriptors", f"hks={pipeline_copy / 'desc'}",
                    "--out", pipeline_copy / "report", "--cmc_target", "multisphere_jitter_2"])
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == ["multisphere_jitter_2: CMC target has no correspondence"]
    assert not [r for r in caplog.records if r.getMessage().startswith("eval triplets")]


@pytest.mark.parametrize("option, value", [("--top", "0"), ("--top", "-5"), ("--refs", "0"),
                                           ("--refs", "abc")])
def test_match_count_below_one_is_usage_error(mini_pipeline, tmp_path, capsys, option, value):
    argv = ["match", "--config", mini_pipeline / "config.cfg",
            "--descriptors", f"hks={mini_pipeline / 'desc'}",
            "--source", "multisphere", "--target", "multisphere_jitter_1",
            "--out", tmp_path, option, value]
    assert run(argv) == 2
    assert f"argument {option}: '{value}' is not an integer of at least 1" in capsys.readouterr().err
    assert not (tmp_path / "matches.csv").exists()


def test_match_takes_one_family(mini_pipeline, tmp_path, caplog):
    desc = mini_pipeline / "desc"
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        assert run(["match", "--config", mini_pipeline / "config.cfg",
                    "--descriptors", f"hks={desc}", f"wks={desc}",
                    "--source", "multisphere", "--target", "multisphere_jitter_1",
                    "--out", tmp_path]) == 2
    assert not (tmp_path / "matches.csv").exists()
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == [f"unrecognized arguments: wks={desc}"]


def test_override_without_value_is_usage_error(mini_corpus, caplog):
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        assert run(["spectrum", "--config", mini_corpus / "config.cfg", "--s"]) == 2
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == ["bad override: --s has no value"]


# argv after "--config CONFIG"; {file} is an existing file, {desc} the
# descriptor directory
FILE_AS_DIRECTORY = {
    "describe": ["--family", "hks", "--out", "{file}"],
    "train": ["--out", "{file}"],
    "eval": ["--descriptors", "hks={desc}", "--out", "{file}"],
    "match": ["--descriptors", "hks={desc}", "--source", "multisphere",
              "--target", "multisphere_jitter_1", "--out", "{file}"],
    "spectrum": ["--spectrum-cache", "{file}"],
}


@pytest.mark.parametrize("command", list(FILE_AS_DIRECTORY))
def test_output_directory_that_is_a_file_is_data_error(mini_pipeline, tmp_path, caplog,
                                                       command):
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    args = [a.format(file=taken, desc=mini_pipeline / "desc")
            for a in FILE_AS_DIRECTORY[command]]
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run([command, "--config", mini_pipeline / "config.cfg", *args])
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == [f"{taken}: cannot create directory: File exists"]
    assert taken.read_text() == "a file\n"


def test_synth_out_that_is_a_file_is_data_error(tmp_path, caplog):
    # synth takes no --config, so it is checked apart from FILE_AS_DIRECTORY
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run(["synth", "--out", taken, "--strengths", "1"])
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == [f"{taken}: cannot create directory: File exists"]
    assert taken.read_text() == "a file\n"


# argv of each command, with {out} its output directory and {config} and
# {desc} the mini pipeline's; then the output file made a directory, under
# {out}, where None is the first shape's spectrum cache entry
DIRECTORY_AS_OUTPUT = {
    "synth": (["--out", "{out}", "--strengths", "1", "--deformations", "jitter"], "torus.off"),
    "spectrum": (["--config", "{config}", "--spectrum-cache", "{out}"], None),
    "describe": (["--config", "{config}", "--family", "hks", "--out", "{out}"],
                 "{first}.hks.csv"),
    "train": (["--config", "{config}", "--out", "{out}"], "model.json"),
    "eval": (["--config", "{config}", "--descriptors", "hks={desc}", "--out", "{out}"],
             "roc_000.csv"),
    "match": (["--config", "{config}", "--descriptors", "hks={desc}", "--source", "multisphere",
               "--target", "multisphere_jitter_1", "--out", "{out}"], "matches.csv"),
}


@pytest.mark.parametrize("command", list(DIRECTORY_AS_OUTPUT))
def test_output_file_that_is_a_directory_is_data_error(mini_pipeline, tmp_path, caplog,
                                                       command):
    argv, name = DIRECTORY_AS_OUTPUT[command]
    config, out = mini_pipeline / "config.cfg", tmp_path / "out"
    ws = Workspace(parse_config(config), cache_dir=out)
    if name is None:
        taken = ws._cache_path(ws.entries[0])
    else:
        taken = out / name.format(first=ws.entries[0].shape_id)
    taken.mkdir(parents=True)
    args = [a.format(out=out, config=config, desc=mini_pipeline / "desc") for a in argv]
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run([command, *args])
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == [f"{taken}: cannot write: Is a directory"]
    # the taken directory is left as it was, and nothing else is left in `out`:
    # no file of this run and no staging directory
    assert taken.is_dir() and not any(taken.iterdir())
    assert list(out.rglob("*")) == [taken]


def test_every_pipeline_write_is_staged(tmp_path, monkeypatch):
    # one output rule: every command writes its files into the staging
    # directory of an output_dir, and each commit removes its staging directory
    written = []
    real = specdesc.container.write_file

    def spy(path, *args):
        written.append(Path(path))
        real(path, *args)

    for module in (specdesc.container, specdesc.config, specdesc.descriptors):
        monkeypatch.setattr(module, "write_file", spy)
    generate_corpus(SyntheticCorpusSpec(base_shapes=MINI_SHAPES, deformations=("jitter",),
                                        strengths=2), tmp_path / "corpus")
    config = tmp_path / "config.cfg"
    config.write_text(MINI_CONFIG.format(manifest="corpus/manifest.csv"))
    desc = tmp_path / "desc"
    for argv in (["spectrum"],
                 ["train", "--out", tmp_path / "train"],
                 ["describe", "--family", "hks", "--out", desc],
                 ["describe", "--family", "learned", "--model", tmp_path / "train" / "model.json",
                  "--out", desc],
                 ["eval", "--descriptors", f"hks={desc}", f"learned={desc}",
                  "--out", tmp_path / "report"],
                 ["match", "--descriptors", f"hks={desc}", "--source", "multisphere",
                  "--target", "multisphere_jitter_1", "--out", tmp_path / "match"]):
        assert run([argv[0], "--config", config, *argv[1:]]) == 0
    suffixes = {p.suffix for p in written}
    assert {".off", ".corr", ".sym", ".spec", ".json", ".dsc", ".csv", ".svg"} <= suffixes
    assert [p for p in written if not p.parent.name.startswith(".staging.")] == []
    assert not list(tmp_path.rglob(".staging.*"))


# the file made a directory, under the pipeline copy; the kind of file the
# error names; the command that reads it, after "--config CONFIG" unless
# it names its own
DIRECTORY_AS_INPUT = {
    "config": ("other.cfg", "config", ["spectrum", "--config", "{path}"]),
    "manifest": ("corpus/manifest.csv", "manifest", ["spectrum"]),
    "mesh": ("corpus/torus.off", "mesh", ["spectrum"]),
    "index_map": ("corpus/torus.sym", "symmetry",
                  ["eval", "--descriptors", "hks={root}/desc", "--out", "{root}/report"]),
    "model": ("model.json", "model",
              ["describe", "--family", "learned", "--model", "{path}", "--out", "{root}/out"]),
    "descriptor": ("desc/torus.hks.dsc", "descriptor",
                   ["eval", "--descriptors", "hks={root}/desc", "--out", "{root}/report"]),
}


@pytest.mark.parametrize("case", list(DIRECTORY_AS_INPUT))
def test_input_file_that_is_a_directory_is_data_error(pipeline_copy, caplog, case):
    name, kind, argv = DIRECTORY_AS_INPUT[case]
    path = pipeline_copy / name
    path.unlink(missing_ok=True)
    path.mkdir()
    args = [a.format(path=path, root=pipeline_copy) for a in argv]
    if "--config" not in args:
        args[1:1] = ["--config", str(pipeline_copy / "config.cfg")]
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run(args)
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == [f"{path}: cannot read {kind} file: Is a directory"]


def test_failed_write_leaves_the_old_file(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, ["old"], [[1, 2.5]])

    def rows():
        yield [3, 4.5]
        raise RuntimeError("halfway")

    with pytest.raises(RuntimeError, match="^halfway$"), output_dir(tmp_path) as stage:
        write_table(stage / path.name, ["new"], rows())
    assert path.read_bytes() == b"old\n1,2.5\n"
    assert list(tmp_path.iterdir()) == [path]  # no staging directory left behind


def test_commit_stopped_part_way_leaves_the_old_manifest(tmp_path, monkeypatch):
    # the manifest is committed after every other file, so a rename that fails
    # part-way leaves the old manifest, not one that lists files not in place
    write_table(tmp_path / "manifest.txt", ["file"], [["a.csv"]])
    replace, moved = os.replace, []

    def failing_replace(src, dst):
        if Path(dst).name == "z.csv":
            raise PermissionError(13, "Permission denied")
        moved.append(Path(dst).name)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(DataError, match="z.csv: cannot write: Permission denied$"), \
            output_dir(tmp_path) as stage:
        for name in ("a.csv", "manifest.txt", "z.csv"):
            write_table(stage / name, ["new"], [[name]])
    assert moved == ["a.csv"]
    assert (tmp_path / "manifest.txt").read_bytes() == b"file\na.csv\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "manifest.txt"]


def test_output_dir_removes_only_stale_staging_directories(tmp_path, monkeypatch, caplog):
    # a staging directory goes only when it names this host and a process
    # that no longer runs; a live writer's, another host's and an unnamed one stay
    host = os.uname().nodename
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    dead = tmp_path / f".staging.{host}.{child.pid}.abcd1234"
    kept = [tmp_path / f".staging.{host}.{os.getpid()}.abcd1234",
            tmp_path / f".staging.other{host}.{child.pid}.abcd1234",
            tmp_path / f".staging.{host}.7.{child.pid}.abcd1234",
            tmp_path / ".staging.abcd1234"]
    for stage in [dead, *kept]:
        stage.mkdir()
        write_table(stage / "a.csv", ["old"])
    with output_dir(tmp_path) as stage:
        assert stage.name.startswith(f".staging.{host}.{os.getpid()}.")
        write_table(stage / "a.csv", ["new"])
    assert sorted(tmp_path.iterdir()) == sorted([tmp_path / "a.csv", *kept])

    # a removal that fails is logged, and the output is still committed
    real = shutil.rmtree

    def refuse(path):
        if Path(path) == dead:
            raise PermissionError(13, "Permission denied")
        real(path)

    dead.mkdir()
    monkeypatch.setattr(specdesc.container.shutil, "rmtree", refuse)
    with caplog.at_level(logging.WARNING, logger="specdesc"), output_dir(tmp_path) as stage:
        write_table(stage / "b.csv", ["new"])
    assert [r.getMessage() for r in caplog.records] == [
        f"{dead}: cannot remove stale staging directory: Permission denied"]
    assert (tmp_path / "b.csv").exists() and dead.is_dir()


@pytest.mark.parametrize("option, value", [
    ("--seed", "-1"), ("--deformations", "foo"), ("--deformations", "bend,"),
    ("--strengths", "-2"), ("--strengths", "0"),
])
def test_bad_synth_flag_writes_nothing(tmp_path, caplog, option, value):
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run(["synth", "--out", tmp_path / "corpus", option, value])
    assert code == 3
    assert names_setting(caplog, option[2:], value)
    assert not list(tmp_path.iterdir())


def test_unknown_base_shape_writes_nothing(tmp_path):
    spec = SyntheticCorpusSpec(base_shapes=("dumbbell", "teapot"))
    with pytest.raises(DataError, match="unknown base shape 'teapot'"):
        generate_corpus(spec, tmp_path / "corpus")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("fields", [6, 8], ids=["short", "long"])
def test_manifest_row_with_wrong_field_count_is_parse_error(pipeline_copy, caplog, fields):
    # a short row would read its missing fields as empty, and a long row's
    # extra field would be dropped
    path = pipeline_copy / "corpus" / "manifest.csv"
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    lines[2] = ",".join((row + ["extra"])[:fields])
    path.write_text("\n".join(lines) + "\n")
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run(["spectrum", "--config", pipeline_copy / "config.cfg"])
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == [f"{path}: line 3: {fields} fields, but the header has 7"]


@pytest.mark.parametrize("null_id, message", [
    ("", "corr_path needs a null_id in the manifest"),
    ("nosuch", "null_id 'nosuch' is not in the manifest"),
], ids=["empty", "unknown"])
def test_manifest_null_id_must_name_a_listed_shape(pipeline_copy, caplog, null_id, message):
    # the correspondence of dumbbell_jitter_1 maps into its null shape
    path = pipeline_copy / "corpus" / "manifest.csv"
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    assert row[0] == "dumbbell_jitter_1" and row[5]
    row[4] = null_id
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run(["spectrum", "--config", pipeline_copy / "config.cfg"])
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == [f"{path}: shape dumbbell_jitter_1: {message}"]


@pytest.mark.parametrize("name", ["config.cfg", "corpus/manifest.csv"])
def test_non_utf8_config_or_manifest_is_parse_error(pipeline_copy, caplog, name):
    path = pipeline_copy / name
    path.write_bytes(path.read_bytes() + "# caf\xe9\n".encode("latin-1"))
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run(["spectrum", "--config", pipeline_copy / "config.cfg"])
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert len(errors) == 1 and errors[0].startswith(f"{path}: not UTF-8 text")


def test_model_with_infinite_nu_max_is_data_error(mini_pipeline, tmp_path, caplog):
    doc = json.loads((mini_pipeline / "train" / "model.json").read_text())
    doc["basis"]["nu_max"] = float("inf")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    assert '"nu_max": Infinity' in model.read_text()
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run(["describe", "--config", mini_pipeline / "config.cfg", "--family", "learned",
                    "--model", model, "--out", tmp_path / "desc"])
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == [f"{model}: malformed model file: nu_max=inf must be positive and finite"]


@pytest.mark.parametrize("nu_max", [1e-300, 0.5, 1.0])
def test_model_cutoff_below_spectrum_is_data_error(mini_pipeline, tmp_path, caplog, nu_max):
    # below the first positive eigenvalue every geometry vector is the same,
    # so every learned descriptor would be constant over the shape. At 1.0
    # the first shapes are described before a later one fails, and still
    # `--out` is not made.
    config = mini_pipeline / "config.cfg"
    ws = Workspace(parse_config(config))
    lowest = {e.shape_id: ws.spectrum(e).first_positive() for e in ws.entries}
    failing = next(shape for shape, value in lowest.items() if value > nu_max)
    assert (failing == ws.entries[0].shape_id) == (nu_max < 1)
    doc = json.loads((mini_pipeline / "train" / "model.json").read_text())
    doc["basis"]["nu_max"] = nu_max
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    with caplog.at_level(logging.ERROR, logger="specdesc"):
        code = run(["describe", "--config", config, "--family", "learned",
                    "--model", model, "--out", tmp_path / "desc"])
    assert code == 3
    errors = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
    assert errors == [f"{model}: shape {failing}: basis cutoff nu_max={nu_max:.6g} "
                      f"lies below the first positive eigenvalue {lowest[failing]:.6g}"]
    assert not (tmp_path / "desc").exists()


def test_match_command(mini_pipeline):
    config = mini_pipeline / "config.cfg"
    out = mini_pipeline / "match"
    assert run(["match", "--config", config,
                "--descriptors", f"hks={mini_pipeline / 'desc'}",
                "--source", "multisphere", "--target", "multisphere_jitter_1",
                "--refs", "3", "--top", "5", "--out", out]) == 0
    lines = (out / "matches.csv").read_text().splitlines()
    assert lines[0] == "ref_vertex,rank,target_vertex,distance"
    assert len(lines) == 1 + 3 * 5
    distances = [float(line.split(",")[3]) for line in lines[1:]]
    assert all(d >= 0.0 for d in distances)
    manifest = (out / "manifest.txt").read_text().split()
    assert manifest == ["map_000.csv", "map_000.off", "matches.csv"]


def test_usage_error_for_missing_subcommand():
    assert main([]) == 2
