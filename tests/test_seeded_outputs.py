"""The ``--allow`` patterns of the seeded-output guard, ``tests/seeded_outputs.py``."""

from seeded_outputs import _allowed


def test_allow_patterns_match_the_list_the_subcommand_and_the_expander_or_prf():
    ideal = "encrypt --kind balanced --n 8 --k 1 --rounds 3 --key 00 --prf ideal --in 16:0000"
    fast = "encrypt --kind balanced --n 8 --k 1 --rounds 3 --key 00 --expander fast --in 16:0000"
    bbs = "decrypt --kind balanced --n 8 --k 1 --rounds 3 --key 00 --expander bbs --in 16:0000"
    assert _allowed("extra:1", ideal, ["extra:encrypt:ideal"])
    assert not _allowed("extra:1", fast, ["extra:encrypt:ideal"])
    assert _allowed("extra:1", fast, ["extra:encrypt"])
    assert _allowed("treewalk:2", bbs, ["extra:encrypt:bbs", "treewalk:decrypt:bbs"])
    assert not _allowed("treewalk:2", bbs, ["extra:decrypt:bbs", "treewalk:encrypt:bbs"])
    assert not _allowed("extra:1", ideal, ["extra:encrypt:fast", "extra:decrypt:ideal"])
