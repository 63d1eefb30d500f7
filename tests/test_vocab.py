import pytest

from spatialgrammar.errors import SchemaError, UnknownCode, UnknownIdentifier, VocabError
from spatialgrammar.vocab import (
    Category,
    VocabEntry,
    Vocabulary,
    load_vocabulary,
    parse_vocabulary,
)

SMALL = """
# comment line
1\tsofa\tfloor_furniture\t1.9\t0.9\t0.8
2\ttv\tsurface_item\t1.2\t0.1\t0.6
-\tlamp\tfloor_furniture\t0.3\t0.3\t1.5
"""


def test_parse_small_table():
    v = parse_vocabulary(SMALL)
    assert len(v) == 3
    assert v.lookup(1).identifier == "sofa"
    assert v.lookup("tv").category is Category.SURFACE_ITEM
    assert v.lookup("lamp").code is None


def test_code_zero_reserved():
    v = parse_vocabulary(SMALL)
    with pytest.raises(UnknownCode, match="reserved"):
        v.lookup(0)


def test_unknown_lookups():
    v = parse_vocabulary(SMALL)
    with pytest.raises(UnknownCode):
        v.lookup(99)
    with pytest.raises(UnknownIdentifier):
        v.lookup("hovercraft")


@pytest.mark.parametrize(
    "line",
    [
        "1 a floor_furniture 1 1",
        "x a floor_furniture 1 1 1",
        "1 a floor_furniture inf 1 1",
        "1 a floor_furniture 1 nan 1",
        "1 a-b floor_furniture 1 1 1",
        "1 a spaceship 1 1 1",
    ],
)
def test_malformed_line_names_source_and_line(line):
    with pytest.raises(SchemaError, match=r"^v\.tsv:2: "):
        parse_vocabulary("# header\n" + line + "\n", source="v.tsv")


def test_duplicate_identifier_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        parse_vocabulary("1\ta\tfloor_furniture\t1\t1\t1\n2\ta\tfloor_furniture\t1\t1\t1\n")


def test_duplicate_code_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        parse_vocabulary("1\ta\tfloor_furniture\t1\t1\t1\n1\tb\tfloor_furniture\t1\t1\t1\n")


def test_bad_category():
    with pytest.raises(ValueError):
        parse_vocabulary("1\ta\tspaceship\t1\t1\t1\n")


def test_nonpositive_size_rejected():
    with pytest.raises(ValueError):
        parse_vocabulary("1\ta\tfloor_furniture\t0\t1\t1\n")


def test_entry_identifier_syntax():
    with pytest.raises(ValueError):
        VocabEntry(identifier="3 legged stool", category=Category.FLOOR_FURNITURE,
                   default_size=(1.0, 1.0, 1.0), code=None)


def test_packaged_default(vocab):
    sofa = vocab.lookup("sofa")
    assert sofa.code == 1
    assert sofa.default_size.as_tuple() == (1.9, 0.9, 0.8)
    assert vocab.lookup(4).identifier == "tv"
    assert vocab.lookup("pendant_light").category is Category.CEILING_MOUNTED


def test_env_override(tmp_path, monkeypatch):
    path = tmp_path / "tiny.tsv"
    path.write_text("7\tcrate\tfloor_furniture\t1.0\t1.0\t1.0\n")
    monkeypatch.setenv("SPATIALGRAMMAR_VOCAB", str(path))
    v = load_vocabulary()
    assert len(v) == 1
    assert v.lookup(7).identifier == "crate"


def test_explicit_path_beats_env(tmp_path, monkeypatch):
    a = tmp_path / "a.tsv"
    a.write_text("1\tfoo\tfloor_furniture\t1\t1\t1\n")
    b = tmp_path / "b.tsv"
    b.write_text("1\tbar\tfloor_furniture\t1\t1\t1\n")
    monkeypatch.setenv("SPATIALGRAMMAR_VOCAB", str(a))
    assert load_vocabulary(b).lookup(1).identifier == "bar"


def test_bool_is_not_a_code():
    v = parse_vocabulary(SMALL)
    with pytest.raises(VocabError):
        v.lookup(True)
