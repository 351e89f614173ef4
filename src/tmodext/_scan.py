"""The one scanner of every parser and the refusal of over-long literals;
whitespace is str.isspace and a digit str.isdecimal, Unicode included."""

from itertools import groupby

from .errors import ParseError

# The most digits an integer literal in parsed text may have: the most
# Python converts from str to int by default.
MAX_LITERAL_DIGITS = 4300
_NAME_START = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"


def _check_literals(text):
    """Refuse text holding a run of more digits than MAX_LITERAL_DIGITS,
    before any of it is converted."""
    if len(text) > MAX_LITERAL_DIGITS and any(
            digits and sum(1 for _ in run) > MAX_LITERAL_DIGITS
            for digits, run in groupby(text, str.isdecimal)):
        raise ParseError(f"an integer literal has more than "
                         f"MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS} digits")


def _scan(text):
    """The tokens of text, each (kind, text, position): "op" one of
    ^+-*/(),;[]=, "name" an ASCII letter or _ and the ASCII letters, digits
    and _ after it, "int" a run of digits, "bad" any other non-space."""
    i, n = 0, len(text)
    while i < n:
        c, j = text[i], i + 1
        if c in "^+-*/(),;[]=":
            yield "op", c, i
        elif c in _NAME_START:
            while j < n and (text[j] in _NAME_START or "0" <= text[j] <= "9"):
                j += 1
            yield "name", text[i:j], i
        elif c.isdecimal():
            while j < n and text[j].isdecimal():
                j += 1
            yield "int", text[i:j], i
        elif not c.isspace():
            yield "bad", c, i
        i = j
