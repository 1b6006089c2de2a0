"""Comment stripping: ``#``/``;`` end a line outside string literals, and
backslash escapes inside a string are honoured."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import parse
from repro.isa.parser import _strip_comment


def reference_strip(line: str) -> str:
    """Character-level reference scanner.

    A backslash escapes the character after it; an unescaped ``"``
    opens or closes a string; outside a string, ``#`` and ``;`` start the
    comment whether escaped or not.
    """
    in_str = escaped = False
    for i, ch in enumerate(line):
        if not in_str and ch in "#;":
            return line[:i]
        if escaped:
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == '"':
            in_str = not in_str
    return line


def test_string_ending_in_escaped_backslash_parses():
    prog = parse('.data\nmsg: .asciiz "C:\\\\"  # note\n.text\nhalt\n')
    start = prog.data_symbols["msg"]
    assert bytes(prog.data_image[start + i] for i in range(4)) == b"C:\\\x00"


def test_comment_characters_inside_strings_are_kept():
    prog = parse('.data\ns: .ascii "a#b;\\"c"  ; trailing\n.text\nhalt\n')
    start = prog.data_symbols["s"]
    assert bytes(prog.data_image[start + i] for i in range(6)) == b'a#b;"c'


def test_escaped_quote_outside_a_string_opens_nothing():
    prog = parse(".text\nli r1, '\\\"'  # a quote character\nhalt\n")
    assert prog[0].imm == ord('"')


@given(st.text(alphabet='ab #;"\\\t', max_size=40))
@settings(max_examples=500, deadline=None)
def test_strip_matches_reference_scanner(line):
    assert _strip_comment(line) == reference_strip(line)
