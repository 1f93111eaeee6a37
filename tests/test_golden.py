"""Golden corpus: CLI output and library reports pinned byte for byte.

Each CLI record holds the exit code and standard output of one in-process
``swigcheck`` command, with the temporary input directory written as
``<tmp>``. Each library record holds the ``to_json()`` of a report the CLI
never produces, or the error a call raises. All inputs are rebuilt from
fixed seeds with ``tests/helpers.py``:

* families and kernels that hold, that have two members swapped (so
  consistency fails), that are checked against their graph with one edge
  dropped (so the Markov checks fail), and a law with structural zeros (so
  rows are skipped);
* every ``check`` mode on family and kernel files; ``dsep`` on both sides;
  ``markov`` for every side, view and format; ``split`` for every labeling
  and format; ``gformula``; the three demos;
* malformed documents: missing or ill-typed cardinalities and non-integer
  state indices.

After an intended output change, regenerate the corpus with

    PYTHONPATH=src python tests/test_golden.py --regenerate

and review the diff of ``tests/golden/corpus.json`` record by record.
"""

from __future__ import annotations

import copy
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from helpers import bernoulli_pair, chain_dag, chain_joint, frontdoor_dag, random_dag
from helpers import random_positive_joint, two_stage_dag
from swigcheck.cli import main
from swigcheck.decision import (
    build_intersection_counterexample,
    derive_joint_independence,
    family_to_kernel,
    frontdoor_demo,
    natural_value_regime,
)
from swigcheck.dist import FiniteDistribution
from swigcheck.errors import SwigcheckError
from swigcheck.family import (
    CounterfactualFamily,
    build_ffrcistg,
    check_conditional_consistency,
    check_vector_consistency,
    kernel_chain_check,
    reduce_interventions,
)
from swigcheck.graph import Dag, serialize_dag

GOLDEN = Path(__file__).parent / "golden" / "corpus.json"

FAMILY_MODES = ("consistency", "swig-markov", "observed-markov", "complete-graph", "all")
KERNEL_MODES = ("consistency", "augmented-markov", "observed-markov", "dawid-ab", "all")


# -- seeded models -------------------------------------------------------------


def zero_law(dag: Dag, rng: random.Random, pattern: dict) -> FiniteDistribution:
    """Factorizing law with every cell matching ``pattern`` set to zero.

    The indicator of the pattern depends only on a vertex and its parents,
    so the renormalized law still factorizes along ``dag``.
    """
    p = random_positive_joint(rng, dag)
    idx = [p.index(v) for v in pattern]
    mass = {
        cell: q for cell, q in p.support() if tuple(cell[i] for i in idx) != tuple(pattern.values())
    }
    total = sum(mass.values())
    return FiniteDistribution(p.variables, {cell: q / total for cell, q in mass.items()})


def models():
    """(name, dag, law) for every seeded family the corpus builds."""
    out = [("chain", chain_dag(), chain_joint())]
    rng = random.Random(2024)
    out.append(("two-stage", two_stage_dag(), random_positive_joint(rng, two_stage_dag())))
    out.append(("frontdoor", frontdoor_dag(), random_positive_joint(rng, frontdoor_dag())))
    for i in range(4):
        dag = random_dag(rng, max_vertices=4)
        out.append((f"random-{i}", dag, random_positive_joint(rng, dag)))
    out.append(("zeros", two_stage_dag(), zero_law(two_stage_dag(), rng, {"H": 0, "Z": 1})))
    return out


def graphs():
    """(name, dag) for the graph commands."""
    out = [("chain", chain_dag()), ("two-stage", two_stage_dag()), ("frontdoor", frontdoor_dag())]
    rng = random.Random(77)
    out += [(f"random-{i}", random_dag(rng, max_vertices=6)) for i in range(3)]
    return out


def swapped(fam: CounterfactualFamily) -> CounterfactualFamily:
    """Same family with the members of values 0 and 1 of the last target
    that has children exchanged."""
    t = [t for t in fam.dag.targets if fam.dag.children(t)][-1]
    members = dict(fam.members)
    k0, k1 = ((t, 0),), ((t, 1),)
    members[k0], members[k1] = fam.members[k1], fam.members[k0]
    return CounterfactualFamily(fam.dag, fam.cards, members)


def drop_first_edge(dag: Dag) -> Dag:
    return Dag(dag.vertices, sorted(dag.edges)[1:], dag.targets, dag.order)


def families():
    """(name, family, graph the file declares) for every family file."""
    out = []
    for name, dag, law in models():
        fam = build_ffrcistg(dag, dag.targets, law)
        out.append((f"{name}/holds", fam, dag))
        if name in ("two-stage", "random-1", "chain"):
            out.append((f"{name}/swapped", swapped(fam), dag))
        if name in ("two-stage", "frontdoor", "chain", "random-1"):
            out.append((f"{name}/dropped-edge", fam, drop_first_edge(dag)))
    return out


# -- CLI records ---------------------------------------------------------------


def run_cli(argv, tmp: Path) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([str(a) for a in argv])
    return {"exit": code, "stdout": buf.getvalue().replace(str(tmp), "<tmp>")}


def write(tmp: Path, name: str, doc) -> Path:
    path = tmp / (name.replace("/", "__") + ".json")
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _query(rng: random.Random, nodes: list[str]):
    picked = rng.sample(nodes, min(len(nodes), rng.randint(2, 4)))
    x, y, z = [picked[0]], [picked[1]], picked[2:]
    return ",".join(x), ",".join(y), ",".join(z)


def graph_commands(tmp: Path):
    cases = []
    rng = random.Random(5)
    for name, dag in graphs():
        path = write(tmp, f"graph-{name}", serialize_dag(dag))
        full = ",".join(f"{t}={i % 2}" for i, t in enumerate(dag.targets))
        for labeling in ("uniform", "temporal", "ancestral"):
            for fmt in ("dot", "json"):
                argv = ["split", "--graph", path, "--assign", full, "--labeling", labeling, "--format", fmt]
                cases.append((f"split/{name}/{labeling}/{fmt}", argv))
        for side in ("swig", "augmented"):
            for view in ("d-separation", "factorization"):
                for fmt in ("table", "json"):
                    argv = ["markov", "--graph", path, "--side", side, "--view", view, "--format", fmt]
                    cases.append((f"markov/{name}/{side}/{view}/{fmt}", argv))
        random_nodes = list(dag.order)
        swig_nodes = random_nodes + [f"fixed:{t}" for t in dag.targets]
        partial = ",".join(f"{t}=1" for t in dag.targets[:1])
        aug_nodes = random_nodes + [f"fixed:F_{t}" for t in dag.targets[:1]]
        for i in range(5):
            x, y, z = _query(rng, swig_nodes)
            argv = ["dsep", "--graph", path, "--assign", full, "--x", x, "--y", y, "--z", z]
            cases.append((f"dsep/{name}/swig/{i}", argv))
            x, y, z = _query(rng, aug_nodes)
            argv = ["dsep", "--graph", path, "--side", "augmented", "--assign", partial]
            cases.append((f"dsep/{name}/augmented/{i}", argv + ["--x", x, "--y", y, "--z", z]))
        v = dag.order[0]
        cases.append((f"dsep/{name}/overlap", ["dsep", "--graph", path, "--assign", full, "--x", v, "--y", v]))
    return cases


def check_commands(tmp: Path):
    cases = []
    for name, fam, dag in families():
        doc = fam.to_json()
        doc["graph"] = serialize_dag(dag)
        fpath = write(tmp, f"family-{name}", doc)
        for mode in FAMILY_MODES:
            cases.append((f"check/family/{name}/{mode}", ["check", "--family", fpath, "--mode", mode]))
        kdoc = family_to_kernel(fam).to_json()
        kdoc["graph"] = serialize_dag(dag)
        kpath = write(tmp, f"kernel-{name}", kdoc)
        for mode in KERNEL_MODES:
            cases.append((f"check/kernel/{name}/{mode}", ["check", "--kernel", kpath, "--mode", mode]))
        if name == "two-stage/holds":
            cases.append((f"check/family/{name}/kernel-mode", ["check", "--family", fpath, "--mode", "dawid-ab"]))
            cases.append((f"check/kernel/{name}/family-mode", ["check", "--kernel", kpath, "--mode", "swig-markov"]))
            gpath = write(tmp, "two-stage-graph", doc["graph"])
            cases.append(
                (f"check/family/{name}/graph-path", ["check", "--family", write(tmp, "by-path", {**doc, "graph": gpath.name})])
            )
            constrained = copy.deepcopy(kdoc)
            drop = [None, 0]
            constrained["regime_space"] = [f for f in constrained["regime_space"] if f != drop]
            constrained["members"] = [
                m for m in constrained["members"] if [m["regime"][t] for t in ("X0", "X1")] != drop
            ]
            cpath = write(tmp, "kernel-constrained", constrained)
            for mode in KERNEL_MODES:
                cases.append((f"check/kernel/constrained/{mode}", ["check", "--kernel", cpath, "--mode", mode]))
    demo = frontdoor_demo()
    for kind in ("sharp", "leaky"):
        kpath = write(tmp, f"kernel-frontdoor-{kind}", demo[kind]["kernel"].to_json())
        for mode in KERNEL_MODES:
            cases.append((f"check/kernel/frontdoor-{kind}/{mode}", ["check", "--kernel", kpath, "--mode", mode]))
    return cases


def gformula_commands(tmp: Path):
    cases = []
    for name, dag, law in models():
        gpath = write(tmp, f"gf-graph-{name}", serialize_dag(dag))
        dpath = write(tmp, f"gf-law-{name}", law.to_json())
        full = ",".join(f"{t}={i % 2}" for i, t in enumerate(dag.targets))
        for label, iv in (("empty", ""), ("first", f"{dag.targets[0]}=1"), ("full", full)):
            cases.append((f"gformula/{name}/{label}", ["gformula", "--graph", gpath, "--dist", dpath, "--intervene", iv]))
    dag = chain_dag()
    gpath = write(tmp, "gf-graph-chain-zero", serialize_dag(dag))
    law = zero_law(dag, random.Random(3), {"A": 1})
    dpath = write(tmp, "gf-law-chain-zero", law.to_json())
    cases.append(("gformula/chain-zero/not-identified", ["gformula", "--graph", gpath, "--dist", dpath, "--intervene", "A=1"]))
    cases.append(("gformula/chain-zero/non-target", ["gformula", "--graph", gpath, "--dist", dpath, "--intervene", "C=1"]))
    return cases


def malformed_commands(tmp: Path):
    """Documents that lack or mistype cardinalities or state indices."""
    dag = chain_dag()
    fam = build_ffrcistg(dag, dag.targets, chain_joint())
    fdoc, kdoc = fam.to_json(), family_to_kernel(fam).to_json()
    variants = {
        "missing-one-cardinality": lambda d: d["cardinalities"].pop("B"),
        "missing-cardinalities": lambda d: d.pop("cardinalities"),
        "cardinality-true": lambda d: d["cardinalities"].update(C=True),
        "cardinality-float": lambda d: d["cardinalities"].update(C=2.5),
        "cardinality-string": lambda d: d["cardinalities"].update(C="2"),
        "member-cardinality-mismatch": lambda d: d["cardinalities"].update(C=3),
        "cell-index-float": lambda d: d["members"][0]["dist"]["entries"][0].update(cell=[0.7, 0, 0]),
        "cell-index-true": lambda d: d["members"][0]["dist"]["entries"][-1].update(cell=[True, 1, 1]),
        "variables-cardinality-float": lambda d: d["members"][0]["dist"]["variables"].update(A=2.5),
        "variables-cardinality-true": lambda d: d["members"][0]["dist"]["variables"].update(A=True),
    }
    cases = []
    for kind, base in (("family", fdoc), ("kernel", kdoc)):
        for label, mutate in variants.items():
            doc = copy.deepcopy(base)
            mutate(doc)
            path = write(tmp, f"malformed-{kind}-{label}", doc)
            cases.append((f"malformed/{kind}/{label}", ["check", f"--{kind}", path, "--mode", "all"]))
    for label, value in (("regime-value-float", 0.7), ("regime-value-true", True), ("regime-value-string", "1")):
        doc = copy.deepcopy(kdoc)
        doc["members"][-1]["regime"]["A"] = value
        path = write(tmp, f"malformed-kernel-{label}", doc)
        cases.append((f"malformed/kernel/{label}", ["check", "--kernel", path, "--mode", "all"]))
    gpath = write(tmp, "malformed-graph", serialize_dag(dag))
    for label, mutate in variants.items():
        if not label.startswith(("cell", "variables")):
            continue
        doc = copy.deepcopy(fdoc["members"][0])
        mutate({"members": [doc]})
        path = write(tmp, f"malformed-dist-{label}", doc["dist"])
        cases.append((f"malformed/gformula/{label}", ["gformula", "--graph", gpath, "--dist", path, "--intervene", "A=1"]))
    return cases


def cli_records(tmp: Path) -> dict:
    cases = graph_commands(tmp) + check_commands(tmp) + gformula_commands(tmp) + malformed_commands(tmp)
    cases += [(f"demo/{name}", ["demo", name]) for name in ("intersection", "frontdoor", "move-to-idle")]
    names = [name for name, _ in cases]
    assert len(set(names)) == len(names), "duplicate record names"
    return {f"cli/{name}": run_cli(argv, tmp) for name, argv in cases}


# -- library records -----------------------------------------------------------


def _report(call) -> object:
    try:
        result = call()
    except SwigcheckError as exc:  # the raised error is the record
        return {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(result, tuple):
        return [part.to_json() for part in result]
    return result.to_json()


def library_records() -> dict:
    out = {}
    for name, fam, dag in families():
        A = fam.dag.targets
        a = {t: i % 2 for i, t in enumerate(A)}
        for v in dag.order:
            out[f"lib/kernel-chain/{name}/{v}"] = _report(lambda: kernel_chain_check(fam, dag, v, a))
        for B, C in ((A[:1], A[1:]), (A, ()), (A[1:], A[:1])):
            if B:
                key = f"lib/vector-consistency/{name}/{','.join(B)}|{','.join(C)}"
                out[key] = _report(lambda: check_vector_consistency(fam, B, C))
        k = family_to_kernel(fam)
        for W in (dag.order[:1], dag.order[-1:], dag.order):
            out[f"lib/joint-independence/{name}/{','.join(W)}"] = _report(lambda: derive_joint_independence(k, W))
        for i in A:
            others = [t for t in A if t != i][:1]
            out[f"lib/natural-value/{name}/{i}"] = _report(lambda: natural_value_regime(k, i))
            if others:
                out[f"lib/natural-value/{name}/{i}|{others[0]}=1"] = _report(
                    lambda: natural_value_regime(k, i, others, [1])
                )
    fams = {name: fam for name, fam, _ in families()}
    # (record, family, B, C, W, mode, Y): for each mode a premise that fails,
    # a conclusion that holds, one that is violated, and skipped rows
    for label, name, B, C, W, mode, Y in (
        ("premise-failed", "chain/holds", ("A",), (), ("A", "B"), "joint", ()),
        ("conclusion-holds", "chain/holds", ("A",), (), ("A",), "joint", ()),
        ("conclusion-violated", "chain/swapped", ("A",), ("B",), ("A", "C"), "joint", ()),
        ("premise-failed", "chain/holds", ("A",), (), ("A",), "conditional", ("B",)),
        ("conclusion-holds", "chain/holds", ("A",), (), ("A", "B"), "conditional", ("C",)),
        ("conclusion-violated", "chain/swapped", ("A",), ("B",), ("A",), "conditional", ("C",)),
        ("skipped-rows", "zeros/holds", ("X0",), ("X1",), ("H", "X0", "Z"), "conditional", ("Y",)),
    ):
        out[f"lib/reduce-interventions/{mode}/{label}"] = _report(
            lambda: reduce_interventions(fams[name], B, C, W, mode, Y)
        )
    for label, name, B, C, Y, W in (
        ("holds", "chain/holds", ("A",), ("B",), ("C",), ("B",)),
        ("violated", "chain/swapped", ("A",), ("B",), ("C",), ("B",)),
        ("skipped-rows", "zeros/holds", ("X0",), ("X1",), ("Y",), ("H", "Z")),
    ):
        out[f"lib/conditional-consistency/{label}"] = _report(
            lambda: check_conditional_consistency(fams[name], B, C, Y, W)
        )
    demo = frontdoor_demo()
    out["lib/frontdoor/sharp-kernel"] = demo["sharp"]["kernel"].to_json()
    out["lib/frontdoor/leaky-kernel"] = demo["leaky"]["kernel"].to_json()
    half = Fraction(1, 2)
    same = bernoulli_pair(half, Fraction(3, 10))
    out["lib/intersection/equal-laws"] = _report(lambda: build_intersection_counterexample(same, same))
    kernel, _ = build_intersection_counterexample(same, bernoulli_pair(half, Fraction(7, 10)))
    out["lib/joint-independence/sign-locked"] = _report(lambda: derive_joint_independence(kernel, ["Y"]))
    return out


def collect(tmp: Path) -> dict:
    return {**cli_records(tmp), **library_records()}


def _mismatches(got: dict, want: dict) -> list[str]:
    return sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))


def test_golden_corpus(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = json.loads(json.dumps(collect(tmp_path)))
    assert _mismatches(got, want) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        corpus = collect(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(corpus, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(corpus)} records to {GOLDEN}")
