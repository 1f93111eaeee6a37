"""Seeded document mutations: every run ends in a verdict or a structured error.

Family, kernel, law and graph documents get one field deleted, or set to
``null``, ``true``, ``1.5``, ``"x"``, ``[]``, ``{}`` or ``-1``: the whole
document, its top-level and graph fields, an edge, a member entry, the
member's key and the values in it, and the member law's variables, entries,
cells, state indices and ``p``. Each mutated document runs through the CLI
(``check --mode all`` for families and kernels, ``gformula`` for laws, and
``split``, ``dsep`` on both sides and ``markov`` for graphs). The exit code
must be 0, 1 or 2, and an error line must name a ``SwigcheckError``
subclass, never a raw Python exception. ``--assign`` strings that name a
non-target, an unknown vertex or a non-integer state must exit 2 on every
graph command that reads them.
"""

from __future__ import annotations

import copy
import io
import json
import random
from contextlib import redirect_stdout

import pytest

from helpers import chain_dag, chain_joint
from swigcheck import errors
from swigcheck.cli import main
from swigcheck.decision import family_to_kernel
from swigcheck.family import build_ffrcistg
from swigcheck.graph import serialize_dag

VALUES = (None, True, 1.5, "x", [], {}, -1)
DELETE = object()
STRUCTURED = {
    name for name, cls in vars(errors).items() if isinstance(cls, type) and issubclass(cls, errors.SwigcheckError)
}


def law_sites(prefix: list, law: dict, rng: random.Random) -> list[list]:
    """Paths into one law document: its fields, one variable, one entry."""
    variable = rng.choice(sorted(law["variables"]))
    entry = rng.randrange(len(law["entries"]))
    cell = [*prefix, "entries", entry, "cell"]
    return [
        [*prefix, "variables"],
        [*prefix, "variables", variable],
        [*prefix, "entries"],
        [*prefix, "entries", entry],
        cell,
        [*cell, rng.randrange(len(law["entries"][entry]["cell"]))],
        [*prefix, "entries", entry, "p"],
    ]


def spec_sites(doc: dict, key: str, rng: random.Random) -> list[list]:
    """Paths into a family or kernel document: every top-level field and
    graph field, one edge, one cardinality, and one member whose key is not
    empty, down to its law."""
    sites = [[], *([field] for field in doc), ["cardinalities", rng.choice(sorted(doc["cardinalities"]))]]
    sites += [["graph", field] for field in doc["graph"]] + [["graph", "edges", rng.randrange(len(doc["graph"]["edges"]))]]
    keyed = [i for i, m in enumerate(doc["members"]) if m[key]]
    m = rng.choice(keyed)
    member = ["members", m]
    sites += [member, [*member, key], [*member, key, rng.choice(sorted(doc["members"][m][key]))], [*member, "dist"]]
    return sites + law_sites([*member, "dist"], doc["members"][m]["dist"], rng)


def mutated(doc, path: list, value):
    out = copy.deepcopy(doc)
    if not path:
        return value
    parent = out
    for step in path[:-1]:
        parent = parent[step]
    if value is not DELETE:
        parent[path[-1]] = value
    elif isinstance(parent, dict):
        parent.pop(path[-1], None)  # a field the document lacks (a kernel's roles) stays absent
    else:
        del parent[path[-1]]
    return out


def documents(rng: random.Random):
    """(kind, document, mutation sites) for one family, kernel and law."""
    dag = chain_dag()
    fam = build_ffrcistg(dag, dag.targets, chain_joint())
    fdoc, kdoc, law = fam.to_json(), family_to_kernel(fam).to_json(), chain_joint().to_json()
    kernel_sites = spec_sites(kdoc, "regime", rng)
    kernel_sites += [["regime_space", rng.randrange(len(kdoc["regime_space"]))], ["roles"]]
    return [
        ("family", fdoc, spec_sites(fdoc, "intervention", rng)),
        ("kernel", kdoc, kernel_sites),
        ("law", law, [[]] + law_sites([], law, rng)),
    ]


def run_cli(argv: list, label) -> int:
    """Exit code of one CLI run, after checking the rule above."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code in (0, 1, 2), label
    first = buf.getvalue().splitlines()[0]
    if code == 2:
        line = json.loads(first)
        assert line["verdict"] == "error" and line["error"] in STRUCTURED, (label, line)
    return code


@pytest.mark.parametrize("seed", [0, 1])
def test_mutated_documents_end_in_a_verdict_or_a_structured_error(tmp_path, seed):
    rng = random.Random(seed)
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(serialize_dag(chain_dag())))
    path = tmp_path / "doc.json"
    runs = 0
    for kind, doc, sites in documents(rng):
        if kind == "law":
            argv = ["gformula", "--graph", str(graph), "--dist", str(path), "--intervene", "A=1"]
        else:
            argv = ["check", f"--{kind}", str(path), "--mode", "all"]
        for site in sites:
            for value in (DELETE, *VALUES) if site else VALUES:
                path.write_text(json.dumps(mutated(doc, site, value)))
                run_cli(argv, (kind, site, value))
                runs += 1
    assert runs > 300


def graph_commands(path, assign: str, augmented_assign: str) -> list[list]:
    """``split``, ``dsep`` on both sides and ``markov`` on the chain graph."""
    path = str(path)
    return [
        ["split", "--graph", path, "--assign", assign],
        ["dsep", "--graph", path, "--assign", assign, "--x", "C", "--y", "fixed:A", "--z", "B"],
        ["dsep", "--graph", path, "--side", "augmented", "--assign", augmented_assign, "--x", "C", "--y", "fixed:F_A", "--z", "B"],
        ["markov", "--graph", path],
        ["markov", "--graph", path, "--side", "augmented"],
    ]


@pytest.mark.parametrize("seed", [0, 1])
def test_mutated_graphs_end_in_a_verdict_or_a_structured_error(tmp_path, seed):
    rng = random.Random(seed)
    doc = serialize_dag(chain_dag())
    sites = [[], *([field] for field in doc), ["edges", rng.randrange(len(doc["edges"]))]]
    path = tmp_path / "graph.json"
    runs = 0
    for site in sites:
        for value in (DELETE, *VALUES) if site else VALUES:
            path.write_text(json.dumps(mutated(doc, site, value)))
            for argv in graph_commands(path, "A=0,B=1", "A=0"):
                run_cli(argv, (site, value, argv[0]))
                runs += 1
    assert runs > 200


@pytest.mark.parametrize("assign", ["A=0,B=1,C=0", "A=0,B=1,Q=1", "A=x,B=1", "A=0.5,B=1"])
def test_assignments_outside_the_targets_or_states_exit_2(tmp_path, assign):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(serialize_dag(chain_dag())))
    for argv in graph_commands(path, assign, assign)[:3]:  # the commands that read --assign
        assert run_cli(argv, argv) == 2, argv
