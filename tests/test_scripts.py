"""The before/after scripts under ``scripts/`` and their shared tree runner."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import bench_energy  # noqa: E402
import bench_evaluate  # noqa: E402
import bench_import  # noqa: E402
import bench_strategy  # noqa: E402
import digest_outputs  # noqa: E402
import trees  # noqa: E402

SCRIPTS = [bench_energy, bench_evaluate, bench_import, bench_strategy,
           digest_outputs]


def test_parse_trees_keeps_order_and_hyphenated_labels():
    parser = trees.argument_parser("doc")
    pairs = trees.parse_trees(parser, [f"parent-8ff8e3e={ROOT}", f"change={ROOT}"])
    assert pairs == [("parent-8ff8e3e", ROOT), ("change", ROOT)]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda m: m.__name__)
@pytest.mark.parametrize("specs, message", [
    (["a", f"b={ROOT}"], "LABEL=PATH"),
    ([f"={ROOT}", f"b={ROOT}"], "nonempty label"),
    ([f"a={ROOT}", f"a={ROOT}"], "new, nonempty label"),
    (["a=/nonexistent", f"b={ROOT}"], "no src/amsghmc/__init__.py"),
], ids=["no-equals", "empty-label", "repeated-label", "no-package"])
def test_every_script_rejects_a_bad_tree_spec(script, specs, message, capsys,
                                              monkeypatch):
    def accepted():
        raise AssertionError(f"{specs} accepted")

    monkeypatch.setattr(trees, "pin_blas", accepted)  # every main's next step
    argv = [arg for spec in specs for arg in ("--tree", spec)]
    with pytest.raises(SystemExit) as exc:
        script.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_digest_needs_two_trees_to_compare(capsys):
    with pytest.raises(SystemExit) as exc:
        digest_outputs.main(["--tree", f"a={ROOT}"])
    assert exc.value.code == 2
    assert "at least 2" in capsys.readouterr().err


def _train_row(call, fingerprint, weights="w"):
    return {"call": call, "failed": 0, "fingerprint": fingerprint,
            "weights": weights, "final_loss_energy": "1.5"}


def test_digest_counts_differing_weights_apart_from_fingerprints():
    same = {"call": 0, "failed": 0, "fingerprint": "e"}
    by_tree = {
        "a": {"evaluate/1": [same],
              "train_eta1e-4/1": [_train_row(0, "f0"), _train_row(1, "f1"),
                                  _train_row(2, "f2")]},
        "b": {"evaluate/1": [same],
              "train_eta1e-4/1": [_train_row(0, "g0"), _train_row(1, "f1"),
                                  _train_row(2, "g2", weights="v")]},
    }
    lines, weights = digest_outputs.compare(by_tree)
    # Call 0 differs in its history only; call 2 in its weights too.
    assert lines == [
        "train_eta1e-4/1 call 0: fingerprint a f0 != b g0",
        "train_eta1e-4/1 call 2: fingerprint a f2 != b g2; weights a w != b v"]
    assert weights == ["b: weights differ from a on 1 of 3 train calls"]


def test_digest_train_outputs_read_weights_and_last_energy(tmp_path):
    from amsghmc import samplers, strategy, training

    nets = strategy.init_strategy(strategy.StrategyConfig(),
                                  np.random.default_rng(0))
    training.save_checkpoint(tmp_path / "checkpoint.npz", nets,
                             samplers.AdaptiveStats(2, mode="training"))
    (tmp_path / "history.csv").write_text(
        "epoch,sub_epoch,loss_energy,grad_norm,diverged\n"
        "1,1,2.5,0.1,0\n1,2,nan,nan,3\n")
    flat = strategy.get_trainable_flat(nets)
    assert digest_outputs.train_outputs(tmp_path) == {
        "weights": hashlib.sha256(flat.tobytes()).hexdigest(),
        "final_loss_energy": "nan"}
    # A stage that raised wrote neither file.
    assert digest_outputs.train_outputs(tmp_path / "raised") == {
        "weights": None, "final_loss_energy": None}


def test_alternate_reverses_odd_repeats():
    items = [("a", 1), ("b", 2)]
    assert [trees.alternate(items, rep) for rep in range(3)] == [
        items, items[::-1], items]


def test_quartiles_ratios_and_medians():
    assert trees.quartiles([5, 1, 4, 2, 3]) == {"median": 3, "q1": 2, "q3": 4}
    assert trees.ratios([2.0, 3.0], [1.0, 6.0]) == [2.0, 0.5]
    runs = [{"x": 1, "y": 5}, {"x": 3, "y": 1}, {"x": 2, "y": 2}]
    assert trees.medians(runs) == {"x": 2, "y": 2}


def test_run_child_returns_the_last_json_line(tmp_path):
    script = tmp_path / "child.py"
    script.write_text("import json, sys\nprint('progress')\n"
                      "print(json.dumps({'args': sys.argv[1:]}))\n")
    assert trees.run_child(script, ["--x", 3]) == {"args": ["--x", "3"]}


def test_run_child_raises_with_the_childs_traceback(tmp_path):
    script = tmp_path / "child.py"
    script.write_text("raise ValueError('boom from the child')\n")
    with pytest.raises(RuntimeError, match="ValueError: boom from the child"):
        trees.run_child(script, [])


@pytest.fixture
def blas_reading(monkeypatch):
    """Set what perfbench's reader reports; the pinned variables are restored."""
    for var in trees.BLAS_VARS:
        monkeypatch.setenv(var, "1")

    def read(threads):
        monkeypatch.setattr(trees, "perfbench",
                            lambda: SimpleNamespace(_blas_threads=lambda: threads))
    return read


def test_pin_blas_stops_unless_one_thread(blas_reading, capsys):
    blas_reading(2)
    with pytest.raises(SystemExit, match="BLAS runs 2 threads"):
        trees.pin_blas()
    blas_reading(1)
    trees.pin_blas()
    assert capsys.readouterr().err == ""
    blas_reading(None)
    trees.pin_blas()
    assert "unreadable" in capsys.readouterr().err


def _shape(doc, rename):
    """The nested key structure of a JSON document, keys renamed."""
    if not isinstance(doc, dict):
        return None
    return {rename(key): _shape(value, rename) for key, value in doc.items()}


def test_bench_import_smoke_finds_no_scipy(tmp_path):
    out = tmp_path / "BENCH_import.json"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_import.py"),
                    "--tree", f"a={ROOT}", "--tree", f"b={ROOT}", "--repeats", "2",
                    "--out", str(out)],
                   check=True, capture_output=True, timeout=120)
    doc = json.loads(out.read_text())
    assert doc["command"] == ("python3 scripts/bench_import.py --tree a=... "
                              "--tree b=... --repeats 2")
    assert doc["environment"]["blas_threads"] in (1, None)
    assert set(doc["trees"]) == {"a", "b"}
    for tree in doc["trees"].values():
        assert len(tree["runs"]) == 2
        assert set(tree["median"]) == {"import_s", "rss_mb", "modules",
                                       "scipy_modules", "openblas_libs"}
        assert all(run["scipy_modules"] == 0 and run["import_s"] > 0
                   for run in tree["runs"])


def test_bench_strategy_smoke_matches_the_committed_structure(tmp_path):
    out = tmp_path / "BENCH_strategy.json"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_strategy.py"),
                    "--tree", f"a={ROOT}", "--tree", f"b={ROOT}", "--pairs", "2",
                    "--calls", "1", "--out", str(out)],
                   check=True, capture_output=True, timeout=120)
    doc = json.loads(out.read_text())
    committed = json.loads((ROOT / "BENCH_strategy.json").read_text())
    first, second = next(iter(committed["results"].values()))

    def rename(key):
        return key.replace(first, "a").replace(second, "b")

    assert _shape(doc, str) == _shape(committed, rename)
    assert doc["command"] == ("python3 scripts/bench_strategy.py --tree a=... "
                              "--tree b=... --pairs 2 --calls 1 --seed 1")
    assert doc["environment"]["blas_threads"] in (1, None)
    assert all(result["b"]["bit_identical_to_a"] is True
               for result in doc["results"].values())
