"""End-to-end CLI runs through main(argv): exit codes, emitted docs, reports,
and the pipe-style composition the docstring promises."""

import contextlib
import io
import json
import os
import select
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halg import (GF, QQ, BilinearMap, LinearMap, OperatorFamily,
                  PreconditionFailed, TheoremCheckError, catalog,
                  check_structure, make_doc, make_report, parse_doc,
                  rb_to_dendriform, serialize_doc, structure_ok, yau_twist)
import halg.cli
import halg.search
from halg.cli import main
from halg.structures import (HOM_ASSOC_MATCHING_RB, MATCHING_HOM_ASSOC,
                             PLAIN_ASSOC_MATCHING_RB, Violation)

N2 = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
BAD = [[[1, 0], [1, 0]], [[0, 0], [0, 0]]]


def n2_p0():
    return make_doc(QQ, 2, ("a",), PLAIN_ASSOC_MATCHING_RB,
                    {"dot": BilinearMap.from_nested(QQ, N2)},
                    operators=OperatorFamily(
                        ops={"a": LinearMap.from_rows(QQ, [[0, 0], [0, 0]])},
                        weights={"a": 0}))


def bad_doc():
    return make_doc(QQ, 2, ("a",), MATCHING_HOM_ASSOC,
                    {"dot": {"a": BilinearMap.from_nested(QQ, BAD)}},
                    twist=LinearMap.identity(QQ, 2))


def write_docs(tmp_path, name, *docs):
    path = tmp_path / name
    path.write_bytes(b"".join(serialize_doc(d) + b"\n" for d in docs))
    return str(path)


def last_json(capsys):
    out = capsys.readouterr()
    lines = [ln for ln in out.out.splitlines() if ln.strip()]
    return [json.loads(ln) for ln in lines], out.err


def test_check_passing_doc(tmp_path, capsys):
    path = write_docs(tmp_path, "ok.jsonl", catalog("N2"))
    assert main(["check", path]) == 0
    payloads, _ = last_json(capsys)
    assert payloads == [{"verdict": "pass", "violations": []}]


def test_check_failing_doc_reports_witnesses(tmp_path, capsys):
    path = write_docs(tmp_path, "bad.jsonl", bad_doc())
    assert main(["check", path]) == 2
    payloads, _ = last_json(capsys)
    report = payloads[0]
    assert report["verdict"] == "fail"
    classic = [v for v in report["violations"]
               if v["basis-indices"] == [0, 1, 1]]
    assert classic and classic[0]["lhs"] == [1, 0]
    assert classic[0]["rhs"] == [0, 0]
    assert classic[0]["omega-indices"] == ["a", "a"]


def test_check_stops_at_first_failing_doc(tmp_path, capsys):
    path = write_docs(tmp_path, "mixed.jsonl", catalog("N2"), bad_doc(),
                      catalog("Z2"))
    assert main(["check", path]) == 2
    payloads, _ = last_json(capsys)
    assert len(payloads) == 2  # the doc after the failure is never reported


def test_check_verbose_notes_twist_conditions(tmp_path, capsys):
    path = write_docs(tmp_path, "ok.jsonl", catalog("N2"))
    assert main(["check", "--verbose", path]) == 0
    _, err = last_json(capsys)
    assert "info: twist multiplicative: pass" in err


def test_check_reads_stdin(monkeypatch, capsys):
    blob = serialize_doc(catalog("D1")) + b"\n"
    monkeypatch.setattr("sys.stdin", types.SimpleNamespace(buffer=io.BytesIO(blob)))
    assert main(["check"]) == 0
    payloads, _ = last_json(capsys)
    assert payloads[0]["verdict"] == "pass"


def test_check_axiom_toggle_flips_the_verdict(tmp_path, capsys):
    field = GF(3)
    hom = yau_twist(catalog("N2-id-wm1-F3"),
                    LinearMap.from_rows(field, [[1, 0], [0, 2]]))
    den = rb_to_dendriform(hom)
    path = write_docs(tmp_path, "den.jsonl", den)
    assert main(["check", path]) == 0
    capsys.readouterr()
    assert main(["check", "--axiom-toggle", "dendriform-axiom3-twist=off",
                 path]) == 2
    payloads, _ = last_json(capsys)
    assert payloads[0]["violations"][0]["axiom-id"] == "dendriform-3"
    assert main(["check", "--axiom-toggle", "bogus", path]) == 1
    assert main(["check", "--axiom-toggle", "no-such-toggle=on", path]) == 1


def test_construct_yau_twist_param_and_stored_candidate(tmp_path, capsys):
    path = write_docs(tmp_path, "base.jsonl", n2_p0())
    assert main(["construct", "yau-twist", path,
                 "--param", "twist=[[1,0],[0,2]]"]) == 0
    out, _ = capsys.readouterr()
    doc = parse_doc(out.strip().encode())
    assert doc.kind == HOM_ASSOC_MATCHING_RB
    assert doc.product().c[0][1] == (0, 2)

    with_candidate = make_doc(QQ, 2, ("a",), PLAIN_ASSOC_MATCHING_RB,
                              {"dot": BilinearMap.from_nested(QQ, N2)},
                              operators=n2_p0().operators,
                              twist=LinearMap.from_rows(QQ, [[1, 0], [0, 2]]))
    path2 = write_docs(tmp_path, "cand.jsonl", with_candidate)
    assert main(["construct", "yau-twist", path2]) == 0
    out2, _ = capsys.readouterr()
    assert parse_doc(out2.strip().encode()).twist.rows == ((1, 0), (0, 2))

    assert main(["construct", "yau-twist", path]) == 1  # no twist anywhere


def test_construct_pipe_round_trip(tmp_path, monkeypatch, capsys):
    path = write_docs(tmp_path, "base.jsonl", n2_p0())
    assert main(["construct", "yau-twist", path,
                 "--param", "twist=[[1,0],[0,2]]"]) == 0
    blob = capsys.readouterr().out.encode()
    monkeypatch.setattr("sys.stdin", types.SimpleNamespace(buffer=io.BytesIO(blob)))
    assert main(["construct", "untwist", "-"]) == 0
    out, _ = capsys.readouterr()
    assert out.encode() == serialize_doc(n2_p0()) + b"\n"


def test_construct_derived_params(tmp_path, capsys):
    path = write_docs(tmp_path, "base.jsonl",
                      yau_twist(n2_p0(), LinearMap.from_rows(QQ, [[1, 0], [0, 2]])))
    assert main(["construct", "derived", path, "--param", "n=2"]) == 0
    out, _ = capsys.readouterr()
    assert parse_doc(out.strip().encode()).twist.rows == ((1, 0), (0, 8))
    assert main(["construct", "derived", path]) == 1  # n is required
    assert main(["construct", "derived", path, "--param", "n=maybe"]) == 1
    assert main(["construct", "derived", path, "--param", "n=2",
                 "--param", "n=3"]) == 1  # duplicate param
    assert main(["construct", "derived", path, "--param", "n=2",
                 "--param", "extra=1"]) == 1  # unknown leftover


def test_construct_precondition_exit_with_report(tmp_path, capsys):
    crush = LinearMap.from_rows(QQ, [[1, 0], [0, 0]])
    hom = yau_twist(n2_p0(), crush)
    path = write_docs(tmp_path, "sing.jsonl", hom)
    assert main(["construct", "untwist", path]) == 2
    payloads, err = last_json(capsys)
    assert "error:" in err
    assert payloads and payloads[0]["verdict"] == "fail"
    assert payloads[0]["violations"][0]["axiom-id"] == "invertible"


def test_construct_guard_without_report(tmp_path, capsys):
    mixed = {"format-version": "1", "kind": "plain-assoc-matching-rb",
             "field": {"kind": "prime-field", "p": 2}, "dim": 2,
             "omega": ["a", "b"],
             "families": {"dot": [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]},
             "operators": {"ops": {"a": [[0, 0], [1, 0]],
                                   "b": [[1, 0], [0, 0]]},
                           "weights": {"a": 0, "b": 1}}}
    doc = parse_doc(json.dumps(mixed).encode())
    path = write_docs(tmp_path, "mixed.jsonl", doc)
    assert main(["construct", "commutator", path]) == 2
    out, err = capsys.readouterr()
    assert "error:" in err and out == ""  # a plain guard carries no report


def test_construct_collapse_takes_json_coeffs(tmp_path, capsys):
    ut = BilinearMap.from_nested(QQ, [[[1, 0], [0, 1]], [[0, 0], [0, 0]]])
    doc = make_doc(QQ, 2, ("a", "b"), MATCHING_HOM_ASSOC,
                   {"dot": {"a": ut, "b": ut}},
                   twist=LinearMap.identity(QQ, 2))
    path = write_docs(tmp_path, "fam.jsonl", doc)
    assert main(["construct", "collapse", path,
                 "--param", 'coeffs={"a":"1/2","b":"1/2"}']) == 0
    out, _ = capsys.readouterr()
    collapsed = parse_doc(out.strip().encode())
    assert collapsed.labels == ("*",)
    assert collapsed.families["dot"].maps["*"].c == ut.c
    assert main(["construct", "collapse", path, "--param", "coeffs=3"]) == 1
    assert main(["construct", "collapse", path]) == 1


def test_construct_writes_to_output_file(tmp_path, capsys):
    path = write_docs(tmp_path, "base.jsonl", catalog("N2-id-wm1"))
    dest = tmp_path / "out.jsonl"
    assert main(["construct", "rb-to-dendriform", path, "-o", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    doc = parse_doc(dest.read_bytes().strip())
    assert doc.kind == "matching-hom-dendriform"


def test_construct_multiple_docs_stream_through(tmp_path, capsys):
    path = write_docs(tmp_path, "two.jsonl", catalog("N2-id-wm1"),
                      catalog("N2-Pnil-w0"))
    assert main(["construct", "rb-to-prelie", path]) == 0
    out, _ = capsys.readouterr()
    docs = [parse_doc(ln.encode()) for ln in out.splitlines() if ln.strip()]
    assert [d.kind for d in docs] == ["matching-hom-prelie"] * 2
    assert all(structure_ok(d) for d in docs)


def test_construct_theorem_failure_exits_three(tmp_path, capsys, monkeypatch):
    # the theorems themselves hold on every valid input, so the exit-3
    # branch is driven by substituting a recipe that raises the error
    import halg.cli as cli_mod
    report = make_report([Violation("unit", (), (), (0,), (1,))])

    def explode(doc, params):
        raise TheoremCheckError("unit-test theorem failure", report)

    monkeypatch.setitem(cli_mod._RECIPES, "untwist", explode)
    path = write_docs(tmp_path, "base.jsonl", catalog("N2-id-wm1"))
    assert main(["construct", "untwist", path]) == 3
    payloads, err = last_json(capsys)
    assert "unit-test theorem failure" in err
    assert payloads[0]["verdict"] == "fail"


def test_search_enumerates_fixture(capsys):
    assert main(["search", "--target", "rb-family", "--fixture", "Z2-F2",
                 "--omega", "1", "--weights", "0"]) == 0
    out, err = capsys.readouterr()
    docs = [parse_doc(ln.encode()) for ln in out.splitlines() if ln.strip()]
    assert len(docs) == 16 and err == ""
    assert all(structure_ok(d) for d in docs)


def test_search_defaults_omega_and_weights(capsys):
    assert main(["search", "--target", "rb-family", "--fixture", "Z2-F2"]) == 0
    out, _ = capsys.readouterr()
    assert len(out.splitlines()) == 16  # omega defaults to the base's labels


def test_search_limit_notes_truncation(capsys):
    assert main(["search", "--target", "rb-family", "--fixture", "Z2-F2",
                 "--limit", "5"]) == 0
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 5
    assert "stopped at the 5-doc limit" in err


def test_search_seeded_sampling(capsys):
    argv = ["search", "--target", "rb-family", "--fixture", "Z2-F2",
            "--seed", "9", "--count", "4"]
    assert main(argv) == 0
    first, _ = capsys.readouterr()
    assert main(argv) == 0
    second, _ = capsys.readouterr()
    assert first == second and len(first.splitlines()) == 4
    assert main(["search", "--target", "rb-family", "--fixture", "Z2-F2",
                 "--seed", "9"]) == 1  # --seed needs --count


def test_search_sampling_shortfall_notes(tmp_path, capsys):
    broken = make_doc(GF(2), 2, ("a",), MATCHING_HOM_ASSOC,
                      {"dot": {"a": BilinearMap.from_nested(GF(2), BAD)}},
                      twist=LinearMap.identity(GF(2), 2))
    path = write_docs(tmp_path, "broken.jsonl", broken)
    assert main(["search", "--target", "rb-family", "--base", path,
                 "--omega", "1", "--seed", "1", "--count", "3"]) == 0
    out, err = capsys.readouterr()
    assert out == "" and "only 0 of 3 samples found" in err


def test_search_base_file_endomorphism_target(tmp_path, capsys):
    path = write_docs(tmp_path, "base.jsonl", catalog("N2-Pnil-w0-F2"))
    assert main(["search", "--target", "endomorphism", "--base", path]) == 0
    out, _ = capsys.readouterr()
    assert len(out.splitlines()) == 3


def test_search_flag_validation(tmp_path, capsys):
    assert main(["search", "--target", "rb-family"]) == 1
    path = write_docs(tmp_path, "base.jsonl", catalog("Z2-F2"))
    assert main(["search", "--target", "rb-family", "--fixture", "Z2-F2",
                 "--base", path]) == 1
    assert main(["search", "--target", "rb-family", "--fixture", "nope"]) == 1
    assert main(["search", "--target", "rb-family", "--fixture", "N2"]) == 1
    assert main(["search", "--target", "rb-family", "--fixture", "N2-F2",
                 "--budget", "10"]) == 1
    capsys.readouterr()


def test_search_writes_output_file(tmp_path, capsys):
    dest = tmp_path / "hits.jsonl"
    assert main(["search", "--target", "commuting", "--fixture",
                 "N2-Pnil-w0-F2", "-o", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    lines = dest.read_bytes().splitlines()
    assert len(lines) == 4


def test_catalog_listing_and_lookup(capsys):
    assert main(["catalog"]) == 0
    out, _ = capsys.readouterr()
    names = out.splitlines()
    assert len(names) == 18 and names == sorted(names)
    assert main(["catalog", "aff2-F3"]) == 0
    out, _ = capsys.readouterr()
    doc = parse_doc(out.strip().encode())
    assert doc.kind == "matching-hom-lie" and doc.field.p == 3
    assert main(["catalog", "nope"]) == 1


def test_diagram_command(tmp_path, capsys):
    ok = write_docs(tmp_path, "ok.jsonl", catalog("N2-Pnil-w0"))
    assert main(["diagram", ok]) == 0
    payloads, _ = last_json(capsys)
    assert payloads[0]["verdict"] == "pass"
    weighted = write_docs(tmp_path, "w.jsonl", catalog("N2-id-wm1"))
    assert main(["diagram", weighted]) == 2
    lie = write_docs(tmp_path, "lie.jsonl", catalog("aff2"))
    assert main(["diagram", lie]) == 2


def test_malformed_inputs_are_usage_errors(tmp_path, capsys):
    garbage = tmp_path / "garbage.jsonl"
    garbage.write_bytes(b"{not json\n")
    assert main(["check", str(garbage)]) == 1
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"\n\n")
    assert main(["check", str(empty)]) == 1
    assert main(["check", str(tmp_path / "missing.jsonl")]) == 1
    # docs are parsed one at a time, and after a failing doc the rest of
    # the input is drained: garbage after it is still usage
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_bytes(serialize_doc(bad_doc()) + b"\n{not json\n")
    assert main(["check", str(mixed)]) == 1
    capsys.readouterr()


def test_sanity_bad_doc_really_fails():
    assert not check_structure(bad_doc()).passed


def test_search_limit_below_one_is_a_usage_error(capsys):
    for limit in ("0", "-1"):
        assert main(["search", "--target", "rb-family", "--fixture", "Z2-F2",
                     "--limit", limit]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "limit" in err and "stopped" not in err


def test_scalars_with_denominator_divisible_by_p_are_usage_errors(tmp_path, capsys):
    assert main(["search", "--target", "rb-family", "--fixture", "N2-F3",
                 "--omega", "1", "--weights", "1/3"]) == 1
    _, err = capsys.readouterr()
    assert "error: weights:" in err
    path = write_docs(tmp_path, "n2.jsonl", catalog("N2-F3"))
    assert main(["construct", "yau-twist", path,
                 "--param", 'twist=[["1/3",0],[0,1]]']) == 1
    _, err = capsys.readouterr()
    assert "error: twist:" in err
    fam = write_docs(tmp_path, "fam.jsonl", catalog("N2-F3"))
    assert main(["construct", "collapse", fam,
                 "--param", 'coeffs={"a":"2/3"}']) == 1
    _, err = capsys.readouterr()
    assert "error: coeffs.a:" in err


def test_output_to_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    path = write_docs(tmp_path, "base.jsonl", catalog("N2-id-wm1"))
    dest = str(tmp_path / "missing" / "out.jsonl")
    assert main(["construct", "rb-to-dendriform", path, "-o", dest]) == 1
    _, err = capsys.readouterr()
    assert f"error: cannot write {dest}" in err
    assert main(["search", "--target", "commuting", "--fixture",
                 "N2-Pnil-w0-F2", "-o", dest]) == 1
    _, err = capsys.readouterr()
    assert f"error: cannot write {dest}" in err


def test_output_may_name_the_input(tmp_path, capsys):
    path = write_docs(tmp_path, "d.jsonl", catalog("N2-id-wm1"))
    assert main(["construct", "rb-to-dendriform", path, "-o", path]) == 0
    assert capsys.readouterr().out == ""
    with open(path, "rb") as fh:
        assert parse_doc(fh.read().strip()).kind == "matching-hom-dendriform"
    # a failed command leaves its input untouched
    crush = LinearMap.from_rows(QQ, [[1, 0], [0, 0]])
    sing = write_docs(tmp_path, "sing.jsonl", yau_twist(n2_p0(), crush))
    with open(sing, "rb") as fh:
        before = fh.read()
    assert main(["construct", "untwist", sing, "-o", sing]) == 2
    with open(sing, "rb") as fh:
        assert fh.read() == before
    capsys.readouterr()


class _ClosedAfterOneLine(io.StringIO):
    """A stdout whose reader leaves after the first line."""

    def write(self, text):
        if "\n" in self.getvalue():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


def test_closed_stdout_ends_quietly_with_exit_1(capsys, monkeypatch):
    out = _ClosedAfterOneLine()
    monkeypatch.setattr("sys.stdout", out)
    argv = ["search", "--target", "rb-family", "--fixture", "Z2-F3",
            "--omega", "2", "--weights", "0,0"]
    assert main(argv) == 1
    assert out.getvalue().count("\n") == 1
    assert capsys.readouterr().err == ""


def _zero3_f3():
    """The zero product on F_3^3 with a zero operator: each of its 19683
    linear maps is an endomorphism."""
    field = GF(3)
    return make_doc(field, 3, ("a",), PLAIN_ASSOC_MATCHING_RB,
                    {"dot": BilinearMap.zero(field, 3)},
                    operators=OperatorFamily(
                        ops={"a": LinearMap.from_rows(field, [[0] * 3] * 3)},
                        weights={"a": 0}))


def test_a_search_ends_when_its_reader_leaves(tmp_path, capsys, monkeypatch):
    # each hit is written as it is made, so a reader that leaves after the
    # first line stops the search at the second hit
    path = write_docs(tmp_path, "zero3.jsonl", _zero3_f3())
    made = []
    swap_part = halg.search.swap_part

    def counted(*args, **kwargs):
        made.append(1)
        return swap_part(*args, **kwargs)
    monkeypatch.setattr(halg.search, "swap_part", counted)
    out = _ClosedAfterOneLine()
    monkeypatch.setattr("sys.stdout", out)
    assert main(["search", "--target", "endomorphism", "--base", path]) == 1
    assert out.getvalue().count("\n") == 1
    assert capsys.readouterr().err == ""
    assert len(made) <= 2


def test_output_before_a_malformed_doc_is_already_written(tmp_path, capsys):
    path = tmp_path / "then-garbage.jsonl"
    path.write_bytes(serialize_doc(catalog("N2")) + b"\n{not json\n")
    assert main(["check", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == ['{"verdict":"pass","violations":[]}']
    assert any(line.startswith("error: ") for line in err.splitlines())


def test_garbage_after_a_raised_error_is_still_a_usage_error(tmp_path, capsys,
                                                            monkeypatch):
    # alone, each first doc ends its command with exit 2 by a raised error;
    # the garbage after it must still be read, parsed and refused
    def then_garbage(name, doc):
        path = tmp_path / name
        path.write_bytes(serialize_doc(doc) + b"\n{not json\n")
        return str(path)
    weighted = then_garbage("weighted.jsonl", catalog("N2-id-wm1"))
    assert main(["diagram", weighted]) == 1
    assert main(["diagram", then_garbage("lie.jsonl", catalog("aff2"))]) == 1
    crush = LinearMap.from_rows(QQ, [[1, 0], [0, 0]])
    singular = then_garbage("sing.jsonl", yau_twist(n2_p0(), crush))
    assert main(["construct", "untwist", singular]) == 1

    def refuse(doc, **kw):
        raise PreconditionFailed("refused")
    monkeypatch.setattr(halg.cli, "check_structure", refuse)
    assert main(["check", then_garbage("n2.jsonl", catalog("N2"))]) == 1
    capsys.readouterr()


def test_check_reports_a_doc_before_its_input_ends():
    # a real pipe, since only a process shows stdout's buffering: the first
    # report must arrive while the writer still holds stdin open
    src = os.path.dirname(os.path.dirname(halg.search.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    with subprocess.Popen([sys.executable, "-m", "halg.cli", "check", "-"],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, env=env) as proc:
        try:
            proc.stdin.write(serialize_doc(catalog("N2")) + b"\n")
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 10)
            assert ready, "no report within 10 s of the first doc"
            assert proc.stdout.readline() == b'{"verdict":"pass","violations":[]}\n'
            proc.stdin.close()
            assert proc.wait(timeout=10) == 0
        finally:
            proc.kill()


def test_input_nested_too_deeply_is_a_usage_error(tmp_path, capsys):
    deep = tmp_path / "deep.jsonl"
    deep.write_bytes(b"[" * 100000 + b"\n")
    assert main(["check", str(deep)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    path = write_docs(tmp_path, "n2.jsonl", catalog("N2"))
    assert main(["construct", "yau-twist", path, "--param", "twist=" + "[" * 100000]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_a_sample_refuses_what_an_enumeration_refuses(capsys):
    for argv, sample in (
            (["--target", "endomorphism", "--fixture", "N2-Pnil-w0-F2",
              "--omega", "3", "--weights", "1,1,1"], ["--seed", "1", "--count", "2"]),
            (["--target", "commuting", "--fixture", "N2-Pnil-w0-F3",
              "--weights", "2"], ["--seed", "4", "--count", "1"]),
            (["--target", "rb-family", "--fixture", "Z2-F2", "--limit", "0"],
             ["--seed", "1", "--count", "1"])):
        assert main(["search"] + argv) == 1
        out, enumerated = capsys.readouterr()
        assert out == "" and enumerated.startswith("error: ")
        assert main(["search"] + argv + sample) == 1
        assert capsys.readouterr() == ("", enumerated)


def test_a_huge_label_count_is_a_usage_error(capsys):
    # without --weights the CLI would make one weight per label, whether it
    # enumerates or samples
    argv = ["search", "--target", "rb-family", "--fixture", "N2-F3",
            "--omega", "99999999999999999999"]
    for extra in (["--weights", "0"], [], ["--seed", "1", "--count", "1"]):
        assert main(argv + extra) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")


def test_argument_errors_are_usage_errors_and_help_is_not(capsys):
    search = ["search", "--target", "rb-family", "--fixture", "N2-F2"]
    for argv in ([], ["frob"], search + ["--omega", "abc"],
                 search + ["--limit", "x"], ["search", "--target", "nothing"]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "\nerror: " in "\n" + err
    with pytest.raises(SystemExit) as exc:
        main(["search", "--help"])
    assert exc.value.code == 0
    assert "--budget" in capsys.readouterr().out


_FUZZED = {
    # option -> the rest of a command; every request is small
    "--param": ["construct", "yau-twist", "{path}"],
    "--weights": ["search", "--target", "rb-family", "--fixture", "D1-F2",
                  "--budget", "4096"],
    "--omega": ["search", "--target", "rb-family", "--fixture", "D1-F2",
                "--budget", "4096"],
    "--limit": ["search", "--target", "rb-family", "--fixture", "Z2-F2"],
    "--budget": ["search", "--target", "rb-family", "--fixture", "D1-F2"],
}


@settings(max_examples=300, deadline=None)
@given(option=st.sampled_from(sorted(_FUZZED) + ["--param twist"]),
       value=st.one_of(st.text(), st.from_regex(r"-?[0-9]{1,30}(,-?[0-9/]{1,6})*",
                                                fullmatch=True)))
def test_cli_params_end_in_a_documented_exit_code(tmp_path_factory, option, value):
    path = tmp_path_factory.getbasetemp() / "fuzz-base.jsonl"
    if not path.exists():
        path.write_bytes(serialize_doc(catalog("N2-Pnil-w0-F3")) + b"\n")
    if option == "--param twist":
        option, value = "--param", "twist=" + value
    argv = [a.format(path=path) for a in _FUZZED[option]] + [f"{option}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert any(line.startswith("error: ")
                   for line in err.getvalue().splitlines())
