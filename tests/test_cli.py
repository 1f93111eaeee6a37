import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import swigcheck
from helpers import chain_joint, random_positive_joint, two_stage_dag
from swigcheck import family
from swigcheck.cli import main
from swigcheck.dist import FiniteDistribution
from swigcheck.family import build_ffrcistg
from swigcheck.decision import family_to_kernel
from swigcheck.graph import serialize_dag
from swigcheck.swig import swig_from_json

F = Fraction


@pytest.fixture
def chain_graph_file(tmp_path, chain):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(serialize_dag(chain)))
    return str(path)


@pytest.fixture
def two_stage_file(tmp_path):
    path = tmp_path / "two_stage.json"
    path.write_text(json.dumps(serialize_dag(two_stage_dag())))
    return str(path)


@pytest.fixture
def chain_dist_file(tmp_path):
    path = tmp_path / "chain_dist.json"
    path.write_text(json.dumps(chain_joint().to_json()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSplitCommand:
    def test_temporal_dot_labels(self, capsys, chain_graph_file):
        code, out = run(
            capsys, "split", "--graph", chain_graph_file, "--assign", "A=0,B=1",
            "--labeling", "temporal",
        )
        assert code == 0
        for needle in ('label="A"', 'label="B(a)"', 'label="C(a,b)"'):
            assert needle in out

    def test_uniform_two_stage_labels(self, capsys, two_stage_file):
        code, out = run(
            capsys, "split", "--graph", two_stage_file, "--assign", "X0=0,X1=1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert all(len(n["label"]) == 2 for n in doc["random_nodes"])

    def test_no_targets_without_assignment(self, capsys, tmp_path):
        path = tmp_path / "plain.json"
        path.write_text(json.dumps({"vertices": ["A", "B"], "edges": [["A", "B"]]}))
        code, out = run(capsys, "split", "--graph", str(path))
        assert code == 0
        assert '"A" -> "B"' in out and "fixed:" not in out

    def test_emitted_json_roundtrips(self, capsys, two_stage_file):
        code, out = run(
            capsys, "split", "--graph", two_stage_file, "--assign", "X0=1,X1=0",
            "--format", "json",
        )
        doc = json.loads(out)
        assert swig_from_json(doc).assignment == (("X0", 1), ("X1", 0))

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"vertices": ["A", "B"], "edges": [["A", "B"], ["B", "A"]]}))
        code, out = run(capsys, "split", "--graph", str(bad))
        assert code == 2
        assert json.loads(out.splitlines()[0])["verdict"] == "error"


class TestDsepCommand:
    def test_two_stage_outcome_row(self, capsys, two_stage_file):
        code, out = run(
            capsys, "dsep", "--graph", two_stage_file, "--assign", "X0=0,X1=1",
            "--x", "Y", "--y", "X0,X1,H,fixed:X0", "--z", "Z,fixed:X1",
        )
        assert code == 0
        assert json.loads(out.splitlines()[0])["verdict"] == "separated"

    def test_connected_query_exits_1_with_witness(self, capsys, chain_graph_file):
        code, out = run(
            capsys, "dsep", "--graph", chain_graph_file, "--assign", "A=0,B=0",
            "--x", "fixed:B", "--y", "C",
        )
        assert code == 1
        doc = json.loads(out.splitlines()[0])
        assert doc["verdict"] == "connected" and doc["witness"]

    def test_overlapping_query_exits_2(self, capsys, chain_graph_file):
        code, _ = run(
            capsys, "dsep", "--graph", chain_graph_file, "--assign", "A=0,B=0",
            "--x", "A", "--y", "A",
        )
        assert code == 2

    def test_frontdoor_regime_graph(self, capsys, tmp_path, frontdoor):
        path = tmp_path / "frontdoor.json"
        path.write_text(json.dumps(serialize_dag(frontdoor)))
        code, out = run(
            capsys, "dsep", "--graph", str(path), "--side", "augmented",
            "--assign", "T=1", "--x", "Y", "--y", "fixed:F_T", "--z", "M",
        )
        assert code == 0
        assert json.loads(out.splitlines()[0])["verdict"] == "separated"

    def test_regime_naming_non_targets_exits_2(self, capsys, tmp_path, frontdoor):
        path = tmp_path / "frontdoor.json"
        path.write_text(json.dumps(serialize_dag(frontdoor)))
        code, out = run(
            capsys, "dsep", "--graph", str(path), "--side", "augmented",
            "--assign", "Q=1,M=0", "--x", "Y", "--y", "fixed:F_T", "--z", "M",
        )
        assert code == 2
        assert json.loads(out.splitlines()[0])["error"] == "NotATarget"


class TestMarkovCommand:
    def test_swig_table_rows(self, capsys, two_stage_file):
        code, out = run(capsys, "markov", "--graph", two_stage_file)
        assert code == 0
        assert len(out.strip().splitlines()) == 5
        assert "Y(x0,x1) _||_" in out

    def test_augmented_json_statements(self, capsys, two_stage_file):
        code, out = run(
            capsys, "markov", "--graph", two_stage_file, "--side", "augmented",
            "--format", "json",
        )
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert lines[0]["verdict"] == "ok" and lines[0]["count"] == 5
        by_vertex = {l["vertex"]: l for l in lines[1:]}
        assert set(by_vertex["Y"]["given_indicators"]) == {"F_X1"}

    def test_factorization_table_view(self, capsys, two_stage_file):
        code, out = run(
            capsys, "markov", "--graph", two_stage_file, "--view", "factorization"
        )
        assert code == 0
        assert "depends only on: {H, x0}" in out

    def test_two_vertex_empty_graph(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"vertices": ["A", "B"], "edges": []}))
        code, out = run(capsys, "markov", "--graph", str(path), "--format", "json")
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert lines[0]["count"] == 2
        assert all(not l["given_random"] and not l["given_fixed"] for l in lines[1:])


class TestCheckCommand:
    @pytest.fixture
    def family_file(self, tmp_path, chain, chain_law):
        fam = build_ffrcistg(chain, chain.targets, chain_law)
        path = tmp_path / "family.json"
        path.write_text(json.dumps(fam.to_json()))
        return str(path), fam

    def test_family_all_modes_hold(self, capsys, family_file):
        path, _ = family_file
        code, out = run(capsys, "check", "--family", path, "--mode", "all")
        assert code == 0
        assert json.loads(out.splitlines()[0])["verdict"] == "holds"

    def test_mutated_family_violates_with_witness(self, capsys, family_file, tmp_path):
        path, fam = family_file
        doc = json.loads(Path(path).read_text())
        entry = doc["members"][1]["dist"]["entries"][0]
        entry["p"] = str(F(entry["p"]) + F(1, 64))
        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(doc))
        code, out = run(capsys, "check", "--family", str(mutated), "--mode", "all")
        assert code == 2  # the member no longer sums to one: rejected at parse
        relaxed = json.loads(Path(path).read_text())
        e0, e1 = relaxed["members"][1]["dist"]["entries"][:2]
        delta = F(1, 64)
        e0["p"] = str(F(e0["p"]) - delta)
        e1["p"] = str(F(e1["p"]) + delta)
        mutated.write_text(json.dumps(relaxed))
        code, out = run(capsys, "check", "--family", str(mutated), "--mode", "all")
        assert code == 1
        first = json.loads(out.splitlines()[0])
        assert first["verdict"] == "violated"

    def test_missing_member_exits_2_naming_it(self, capsys, family_file, tmp_path):
        path, _ = family_file
        doc = json.loads(Path(path).read_text())
        removed = doc["members"].pop(1)
        shrunk = tmp_path / "incomplete.json"
        shrunk.write_text(json.dumps(doc))
        code, out = run(capsys, "check", "--family", str(shrunk), "--mode", "consistency")
        assert code == 2
        message = json.loads(out.splitlines()[0])["message"]
        assert str(removed["intervention"]) in message or "missing" in message

    def test_kernel_modes(self, capsys, tmp_path, chain, chain_law):
        kernel = family_to_kernel(build_ffrcistg(chain, chain.targets, chain_law))
        path = tmp_path / "kernel.json"
        path.write_text(json.dumps(kernel.to_json()))
        code, out = run(capsys, "check", "--kernel", str(path), "--mode", "all")
        assert code == 0
        code, _ = run(capsys, "check", "--kernel", str(path), "--mode", "swig-markov")
        assert code == 2

    def test_requires_exactly_one_input(self, capsys, family_file):
        path, _ = family_file
        code, _ = run(capsys, "check", "--family", path, "--kernel", path)
        assert code == 2

    @pytest.mark.parametrize("kind", ["family", "kernel"])
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["cardinalities"].pop("B"), "cardinalities missing for ['B']"),
            (lambda d: d.pop("cardinalities"), "'cardinalities' must be an object"),
            (lambda d: d["cardinalities"].update(C=True), "cardinality of 'C' must be an integer, got True"),
            (lambda d: d["cardinalities"].update(C=2.5), "cardinality of 'C' must be an integer, got 2.5"),
        ],
        ids=["missing-one", "missing-field", "bool", "float"],
    )
    def test_bad_cardinalities_exit_2(self, capsys, tmp_path, chain, chain_law, kind, mutate, message):
        fam = build_ffrcistg(chain, chain.targets, chain_law)
        doc = (fam if kind == "family" else family_to_kernel(fam)).to_json()
        mutate(doc)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "check", f"--{kind}", str(path), "--mode", "all")
        assert code == 2
        line = json.loads(out.splitlines()[0])
        assert line["error"] == "InvalidDocument"
        assert message in line["message"]

    def test_family_graph_field_may_be_a_path(self, capsys, tmp_path, chain, chain_law):
        fam = build_ffrcistg(chain, chain.targets, chain_law)
        doc = fam.to_json()
        (tmp_path / "graph.json").write_text(json.dumps(doc["graph"]))
        doc["graph"] = "graph.json"
        spec = tmp_path / "family_ref.json"
        spec.write_text(json.dumps(doc))
        code, out = run(capsys, "check", "--family", str(spec), "--mode", "consistency")
        assert code == 0


class TestFailureModes:
    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["members"][1].update(intervention=[1, 2]), "bad family member entry"),
            (lambda d: d["members"][0]["dist"]["entries"][0].update(cell=5), "cell must be a list"),
        ],
        ids=["intervention-list", "cell-int"],
    )
    def test_malformed_shapes_exit_2(self, capsys, tmp_path, chain, chain_law, mutate, message):
        doc = build_ffrcistg(chain, chain.targets, chain_law).to_json()
        mutate(doc)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "check", "--family", str(path))
        assert code == 2
        line = json.loads(out)
        assert line["error"] == "InvalidDocument" and message in line["message"]

    def test_unreadable_input_is_an_invalid_document(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_bytes(b"\xff{")
        for argv in (["check", "--family", str(path)], ["check", "--kernel", str(tmp_path / "absent.json")]):
            code, out = run(capsys, *argv)
            assert code == 2
            assert json.loads(out)["error"] == "InvalidDocument"

    def test_internal_error_exits_3_with_traceback(self, capsys, monkeypatch, tmp_path, chain, chain_law):
        def broken(fam):
            raise KeyError("not an input error")

        monkeypatch.setattr(family, "check_distributional_consistency", broken)
        path = tmp_path / "family.json"
        path.write_text(json.dumps(build_ffrcistg(chain, chain.targets, chain_law).to_json()))
        code = main(["check", "--family", str(path), "--mode", "consistency"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "Traceback" in captured.err and "KeyError: 'not an input error'" in captured.err

    @pytest.mark.parametrize("demo", ["move-to-idle", "frontdoor"])
    def test_closed_stdout_exits_quietly(self, demo):
        # the read end is closed before the command starts, so its first
        # write meets a broken pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(swigcheck.__file__).resolve().parents[1])
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "swigcheck.cli", "demo", demo],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src},
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 141


class TestGformulaCommand:
    def test_chain_intervention_marginal(self, capsys, tmp_path, chain_graph_file, chain_dist_file):
        out_path = tmp_path / "out.json"
        code, _ = run(
            capsys, "gformula", "--graph", chain_graph_file, "--dist", chain_dist_file,
            "--intervene", "A=1", "--out", str(out_path),
        )
        assert code == 0
        d = FiniteDistribution.from_json(json.loads(out_path.read_text()))
        assert d.marginal({"C"}).p((1,)) == F(7, 12)

    def test_empty_intervention_echoes_input(self, capsys, chain_graph_file, chain_dist_file):
        code, out = run(
            capsys, "gformula", "--graph", chain_graph_file, "--dist", chain_dist_file,
            "--intervene", "",
        )
        assert code == 0
        assert FiniteDistribution.from_json(json.loads(out)) == chain_joint()

    def test_zero_row_exits_1_naming_cell(self, capsys, tmp_path, chain_graph_file):
        mass = {}
        pB = {1: F(3, 4)}
        pC = {0: F(1, 3), 1: F(2, 3)}
        entries = []
        for b in (0, 1):
            for c in (0, 1):
                p = (pB[1] if b else 1 - pB[1]) * (pC[b] if c else 1 - pC[b])
                entries.append({"cell": [1, b, c], "p": str(p)})
        dist = tmp_path / "degenerate.json"
        dist.write_text(json.dumps({"variables": {"A": 2, "B": 2, "C": 2}, "entries": entries}))
        code, out = run(
            capsys, "gformula", "--graph", chain_graph_file, "--dist", str(dist),
            "--intervene", "A=0",
        )
        assert code == 1
        doc = json.loads(out.splitlines()[0])
        assert doc["vertex"] == "B" and doc["cell"] == {"A": 0}

    def test_intervening_on_non_target_exits_2(self, capsys, chain_graph_file, chain_dist_file):
        code, _ = run(
            capsys, "gformula", "--graph", chain_graph_file, "--dist", chain_dist_file,
            "--intervene", "C=1",
        )
        assert code == 2

    def test_out_of_range_intervention_exits_2(self, capsys, chain_graph_file, chain_dist_file):
        code, out = run(
            capsys, "gformula", "--graph", chain_graph_file, "--dist", chain_dist_file,
            "--intervene", "A=5",
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "InvalidDocument"
        assert doc["message"] == "state 5 out of range for 'A' (cardinality 2)"

    def test_out_of_range_intervention_on_childless_target_exits_2(self, capsys, tmp_path, chain_dist_file):
        graph = tmp_path / "chain_target_c.json"
        graph.write_text(json.dumps({"vertices": ["A", "B", "C"], "edges": [["A", "B"], ["B", "C"]], "targets": ["C"]}))
        code, out = run(capsys, "gformula", "--graph", str(graph), "--dist", chain_dist_file, "--intervene", "C=7")
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "InvalidDocument"
        assert doc["message"] == "state 7 out of range for 'C' (cardinality 2)"

    def test_literal_past_the_digit_bound_exits_2_naming_it(self, capsys, tmp_path):
        graph, law = tmp_path / "a.json", tmp_path / "law.json"
        graph.write_text(json.dumps({"vertices": ["A"]}))
        entries = [{"cell": [0], "p": "1e-5000"}, {"cell": [1], "p": "1"}]
        law.write_text(json.dumps({"variables": {"A": 2}, "entries": entries}))
        code, out = run(capsys, "gformula", "--graph", str(graph), "--dist", str(law))
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "InvalidDocument" and "'1e-5000'" in doc["message"]

    def test_total_mass_past_the_digit_bound_exits_2(self, capsys, tmp_path):
        # each literal fits the digit bound, but their common denominator
        # has over 6,000 digits
        graph, law = tmp_path / "a.json", tmp_path / "law.json"
        graph.write_text(json.dumps({"vertices": ["A"]}))
        masses = [f"1/{10**3000 + 1}", f"1/{10**3000 + 3}", "1/2"]
        entries = [{"cell": [i], "p": p} for i, p in enumerate(masses)]
        law.write_text(json.dumps({"variables": {"A": 3}, "entries": entries}))
        code, out = run(capsys, "gformula", "--graph", str(graph), "--dist", str(law))
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "InvalidDocument"
        assert doc["message"] == "total mass is a fraction of over 4300 digits, expected 1"

    def test_output_roundtrips_and_is_deterministic(self, capsys, tmp_path, chain_graph_file, chain_dist_file):
        outs = []
        for name in ("a.json", "b.json"):
            out_path = tmp_path / name
            code, _ = run(
                capsys, "gformula", "--graph", chain_graph_file, "--dist", chain_dist_file,
                "--intervene", "B=1", "--out", str(out_path),
            )
            assert code == 0
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]
        FiniteDistribution.from_json(json.loads(outs[0]))


class TestDemoCommand:
    def test_intersection_demo(self, capsys):
        code, out = run(capsys, "demo", "intersection")
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert lines[0]["verdict"] == "holds"
        witness = lines[1]["witnesses"][0]
        assert set(witness["first_row"].values()) == {"7/10", "3/10"}
        assert set(witness["second_row"].values()) == {"3/10", "7/10"}

    def test_frontdoor_demo(self, capsys):
        code, out = run(capsys, "demo", "frontdoor")
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert lines[0]["verdict"] == "holds"

    def test_move_to_idle_demo(self, capsys):
        code, out = run(capsys, "demo", "move-to-idle")
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        spaces = {l["space"]: l for l in lines[1:]}
        assert spaces["treatment-completion"]["holds"]
        assert not spaces["sign-locked-pair"]["holds"]

    def test_demo_output_is_deterministic(self, capsys):
        _, first = run(capsys, "demo", "intersection")
        _, second = run(capsys, "demo", "intersection")
        assert first == second


class TestDeterminism:
    def test_markov_byte_identical(self, capsys, two_stage_file):
        _, a = run(capsys, "markov", "--graph", two_stage_file, "--format", "json")
        _, b = run(capsys, "markov", "--graph", two_stage_file, "--format", "json")
        assert a == b

    def test_family_file_roundtrip(self, tmp_path):
        rng = random.Random(5)
        dag = two_stage_dag()
        fam = build_ffrcistg(dag, dag.targets, random_positive_joint(rng, dag))
        doc = fam.to_json()
        from swigcheck.family import CounterfactualFamily

        again = CounterfactualFamily.from_json(json.loads(json.dumps(doc)))
        assert again.to_json() == doc
