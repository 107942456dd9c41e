"""The CLI emits the committed corpus byte for byte.

``tests/output_corpus.py`` holds the invocations and regenerates the
expected records; see its docstring for when and how.
"""

import difflib
import json

import output_corpus
from output_corpus import CORPUS_PATH, FIGURE_2_PATH, INVOCATIONS, replay


def test_every_invocation_emits_its_committed_bytes(tmp_path):
    expected = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    assert [r["argv"] for r in expected] == INVOCATIONS, "corpus out of date: regenerate it"
    records, figure = replay(tmp_path)
    changed = [
        f"{' '.join(want['argv'])}: "
        + ", ".join(key for key in ("exit", "stdout", "stderr", "out") if got[key] != want[key])
        for got, want in zip(records, expected)
        if got != want
    ]
    assert not changed, "changed invocations:\n" + "\n".join(changed)
    want_figure = FIGURE_2_PATH.read_text(encoding="utf-8")
    diff = difflib.unified_diff(want_figure.splitlines(), figure.splitlines(), lineterm="", n=0)
    assert figure == want_figure, "figure 2 cells changed:\n" + "\n".join(diff)


def test_regenerate_names_what_changed(tmp_path, monkeypatch, capsys):
    # the script's list of changed invocations is what a byte-changing change records
    records = [{"argv": ["figure", "1"], "stdout": "a"}, {"argv": ["limits"], "stdout": "b"}]
    corpus, figure = tmp_path / "corpus.json", tmp_path / "figure_2.csv"
    corpus.write_text(json.dumps(records), encoding="utf-8")
    figure.write_text("x\n", encoding="utf-8")
    monkeypatch.setattr(output_corpus, "CORPUS_PATH", corpus)
    monkeypatch.setattr(output_corpus, "FIGURE_2_PATH", figure)
    output_corpus._report_changes([records[0], {"argv": ["limits"], "stdout": "c"}], "x\n")
    assert capsys.readouterr().out == "1 of 2 records changed\n  limits\nfigure_2.csv unchanged\n"
    output_corpus._report_changes(records, "y\n")
    assert capsys.readouterr().out == "0 of 2 records changed\nfigure_2.csv changed\n"
