"""Compare the outputs of perfbench's stage calls between source trees.

    python3 scripts/digest_outputs.py --tree before=PATH --tree after=. \
        [--train-seeds 1-8] [--train-calls 64] [--out DIGESTS.json]

Each tree's own ``src/`` and ``perfbench/`` are imported in a child
process (``trees.run_child``).  Every call is made as perfbench makes
call ``i`` of a run with setup seed ``s``: stage seed ``1000*s + i``,
outputs reduced to the workload's fingerprint (report summary and CSV
files for ``evaluate``, ``history.csv`` and the checkpoint's weights for
``train_eta1e-4``, the trace files for ``sample_*``).  The calls are

* ``evaluate``, setup seeds 1-3, call 0;
* ``sample_sghmc``, ``sample_amsghmc`` and ``sample_hmc``, setup seed 1,
  call 0;
* ``train_eta1e-4``, every setup seed of ``--train-seeds`` and calls
  ``0 .. --train-calls - 1``, also recording the segments each call
  skipped: the calls that count as failed operations;
* ``train_shortcut``, which no perfbench workload covers: a tiny
  ``train`` stage with ``use_shortcut`` on (``SHORTCUT_TRAIN``) on a
  2-story, 0.5 s problem generated at seed 3, fingerprinted by its
  ``history.csv`` and every ``nets_state`` array of its checkpoint.

Every ``train_eta1e-4`` and ``train_shortcut`` call also records the
digest of its checkpoint's trainable weights and its last ``loss_energy``
as ``history.csv`` writes it (``train_outputs``), so that a change to a
history column, which changes every fingerprint, can still show
identical weights.  Likewise every ``sample_*`` call records the digest
of the arrays that the tree's own ``load_trace`` reads back and the
trace's meta (``trace_outputs``), so that two trees that store a trace
in different files can still show identical samples.

The script prints, per tree and setup seed, the ``train_eta1e-4`` calls
that failed, every call whose fingerprint, weights, final energy loss or
failure count differs between the trees, and per tree the number of
train calls whose weights differ from the first tree's.  The exit code
is 1 when any call differs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import shutil
import sys
from pathlib import Path

import trees

SHORTCUT_SEED = 3
SHORTCUT_TRAIN = {"epochs": 2, "sub_epochs": 2, "adapt_epochs": 1,
                  "adapt_last": 2, "steps_per_sub_epoch": 12, "T_T": 6,
                  "K0": 8, "K": 4, "eta": 1e-4, "use_shortcut": True,
                  "n_rbf": 4}


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def plan(train_seeds: list, train_calls: int) -> list:
    """(workload, setup seed, call indices) in the order they run."""
    jobs = [("evaluate", s, [0]) for s in (1, 2, 3)]
    jobs += [(name, 1, [0]) for name in ("sample_sghmc", "sample_amsghmc",
                                         "sample_hmc")]
    jobs += [("train_eta1e-4", s, list(range(train_calls))) for s in train_seeds]
    return jobs


def train_outputs(out: Path) -> dict:
    """The sha256 of the trainable weights in ``out/checkpoint.npz`` and
    the last ``loss_energy`` of ``out/history.csv``, as text so that a NaN
    equals itself; both None when the stage raised before writing them."""
    from amsghmc import strategy, training

    if not (out / "checkpoint.npz").is_file():
        return {"weights": None, "final_loss_energy": None}
    nets, _, _ = training.load_checkpoint(out / "checkpoint.npz")
    weights = hashlib.sha256(strategy.get_trainable_flat(nets).tobytes())
    with open(out / "history.csv") as fh:
        last = list(csv.DictReader(fh))[-1]
    return {"weights": weights.hexdigest(),
            "final_loss_energy": last["loss_energy"]}


def trace_outputs(out: Path) -> dict:
    """The sha256 of the samples' then the potentials' bytes as this tree's
    ``load_trace`` reads ``out/trace`` back, and the meta it returns (which
    holds no ``arrays_sha256``); both None when the stage raised before
    saving the trace."""
    from amsghmc import samplers

    if not (out / "trace" / "trace.json").is_file():
        return {"trace_sha256": None, "trace_meta": None}
    trace = samplers.load_trace(out / "trace")
    digest = hashlib.sha256(trace.samples.tobytes())
    digest.update(trace.potentials.tobytes())
    return {"trace_sha256": digest.hexdigest(), "trace_meta": trace.meta}


def shortcut_call(work: Path) -> dict:
    """The ``train_shortcut`` job as one row in ``collect``'s layout;
    ``failed`` is the number of skipped segments, or the error message
    when the stage raised."""
    from amsghmc import harness, strategy, training

    def run(stage, section):
        cfg = harness.ExperimentConfig.from_dict(
            {"seed": SHORTCUT_SEED, "out": str(work / stage), **section})
        return harness.run_experiment(stage, cfg)

    run("generate", {"generate": {"n_stories": 2, "duration": 0.5}})
    digest = hashlib.sha256()
    try:
        report = run("train", {"problem": str(work / "generate" / "problem.json"),
                               "training": SHORTCUT_TRAIN})
    except harness.StageError as err:
        digest.update(str(err).encode())
        return {"call": 0, "failed": str(err), "fingerprint": digest.hexdigest(),
                **train_outputs(work / "train")}
    digest.update((work / "train" / "history.csv").read_bytes())
    nets, _, _ = training.load_checkpoint(
        work / "train" / report["outputs"]["checkpoint"])
    for key, arr in sorted(strategy.nets_state(nets).items()):
        digest.update(key.encode())
        digest.update(arr.tobytes())
    return {"call": 0, "failed": report["summary"]["skipped_segments"],
            "fingerprint": digest.hexdigest(),
            **train_outputs(work / "train")}


def collect(work: Path, jobs: list) -> dict:
    """Fingerprint and failure count of every call of the imported tree,
    with ``train_outputs`` for the train calls and ``trace_outputs`` for
    the sample calls.

    The stages write their input paths into their outputs, so every tree
    runs in the same work folder, which is emptied before and after.
    """
    import workloads
    from run import call

    results = {}
    shutil.rmtree(work, ignore_errors=True)
    try:
        for name, seed, calls in jobs:
            wl = workloads.make(name)
            ctx = wl.setup(work / f"{name}-{seed}", seed)
            rows = []
            for i in calls:
                out = work / "call"
                _, outcome, fingerprint = call(wl, ctx, 1000 * seed + i, out)
                row = {"call": i, "failed": outcome.failed,
                       "fingerprint": fingerprint}
                if wl.stage == "train":
                    row.update(train_outputs(out))
                elif wl.stage == "sample":
                    row.update(trace_outputs(out))
                shutil.rmtree(out, ignore_errors=True)
                rows.append(row)
            results[f"{name}/{seed}"] = rows
        results[f"train_shortcut/{SHORTCUT_SEED}"] = [
            shortcut_call(work / "train_shortcut")]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return results


def compare(by_tree: dict) -> tuple:
    """(lines naming every call that differs from the first tree's and the
    fields that differ, one line per other tree counting the train calls
    whose weights differ)."""
    (first, base), *rest = by_tree.items()
    lines, weight_lines = [], []
    for label, other in rest:
        train = differ = 0
        for key, rows in base.items():
            for a, b in zip(rows, other[key]):
                if "weights" in a:
                    train += 1
                    differ += a["weights"] != b["weights"]
                fields = [f for f in a if a[f] != b[f]]
                if fields:
                    lines.append(f"{key} call {a['call']}: " + "; ".join(
                        f"{f} {first} {a[f]} != {label} {b[f]}" for f in fields))
        weight_lines.append(f"{label}: weights differ from {first} on "
                            f"{differ} of {train} train calls")
    return lines, weight_lines


def main(argv=None) -> int:
    parser = trees.argument_parser(__doc__)
    parser.add_argument("--train-seeds", default="1-8", type=_seeds)
    parser.add_argument("--train-calls", type=int, default=64)
    parser.add_argument("--out", help="write every fingerprint to this JSON file")
    parser.add_argument("--work", default=str(trees.ROOT / ".digest_work"),
                        help="folder for the calls' files (emptied)")
    parser.add_argument("--collect", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    jobs = plan(args.train_seeds, args.train_calls)
    if args.collect:
        return trees.answer(collect, args.collect, Path(args.work), jobs)
    pairs = trees.parse_trees(parser, args.tree, least=2)
    trees.pin_blas()

    by_tree = {}
    for label, tree in pairs:
        by_tree[label] = trees.run_child(__file__, [
            "--collect", tree, "--work", args.work, "--train-seeds",
            f"{args.train_seeds[0]}-{args.train_seeds[-1]}",
            "--train-calls", args.train_calls])
        for seed in args.train_seeds:
            rows = by_tree[label][f"train_eta1e-4/{seed}"]
            failing = [r["call"] for r in rows if r["failed"]]
            print(f"{label} train_eta1e-4 setup seed {seed}: failing calls "
                  f"{failing}")
    if args.out:
        Path(args.out).write_text(json.dumps(by_tree, indent=1) + "\n")
    diffs, weights = compare(by_tree)
    print("\n".join(diffs) if diffs else "all calls identical between trees")
    print("\n".join(weights))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
