"""One reader for the line-based input files.

A file format is a table of line forms, each written like the line it
describes: ``region I chi X balls B0 B1`` is a line of the key ``region``,
an integer, the keyword ``chi``, an integer, the keyword ``balls`` and two
integers.  After the key, a word with a lower-case letter is a keyword; one
upper-case letter, with or without digits (``I``, ``B0``), an integer; a
longer upper-case word (``NAME``), a token taken as written.  A last word
ending in ``...`` takes the one or more tokens left: ``DART...`` darts
``i<edge>`` (the end at the vertex) and ``o<edge>`` as ``(edge, end)``;
``V.G...`` tuples of integers joined by the separator; any other name the
tokens joined by single spaces.  In brackets, ``[V.G...]``, it may take
none.  A form ending in ``:`` opens a block, the indented lines right under
it, which is the last field of the line.  A key may have several forms; a
line takes the first it fits.  ``#`` starts a comment.

A format also names the keys that number their lines, with the count of
leading fields that make the number, and the keys that may repeat without
one; any other key occurs at most once.  The value of a line is its one
field after the number, or the tuple of them.

The reader refuses an unknown key, a line that fits no form of its key
(short, long, a keyword out of place, a field that is not an integer or a
dart) and a repeated number, each with a ``ValueError`` that names the
line.  Gaps in the numbering are for the caller to find, who knows how
many lines to expect: ``Records.numbered``.

The shipped inputs are files of these formats under the package's ``data``
directory, one per name: :func:`shipped_text` reads one and
:func:`shipped_names` lists the names of a kind.
"""

from __future__ import annotations

from importlib import resources

__all__ = ["Format", "Records", "dart_tokens", "shipped_names", "shipped_text"]

# kind of input -> (directory under data/, file suffix)
_SHIPPED = {"category": ("categories", ".cat"), "triangulation": ("triangulations", ".tri"),
            "skeleton": ("skeletons", ".skel"), "surface": ("surfaces", ".surf")}


def _shipped_dir(kind: str):
    sub, suffix = _SHIPPED[kind]
    return resources.files(__package__).joinpath("data", sub), suffix


def shipped_text(kind: str, name: str) -> str:
    """The text of the shipped input of a kind with a name, e.g.
    ``data/surfaces/<name>.surf`` for a surface; a name that no file has is
    a ``ValueError``."""
    folder, suffix = _shipped_dir(kind)
    try:
        return folder.joinpath(name + suffix).read_text()
    except OSError:
        raise ValueError(f"no shipped {kind} named {name!r}") from None


def shipped_names(kind: str) -> list:
    """The names of the shipped inputs of a kind, sorted."""
    folder, suffix = _shipped_dir(kind)
    return sorted(p.name.removesuffix(suffix) for p in folder.iterdir()
                  if p.name.endswith(suffix))


class _Refusal(ValueError):
    """A field that its placeholder refuses for a reason of its own."""


def _darts(tokens) -> list:
    out = []
    for token in tokens:
        digits = token[1:]
        if token[:1] not in ("i", "o") or not (digits.isascii() and digits.isdigit()):
            raise _Refusal(f"bad dart {token!r}: expected i<edge> or o<edge>")
        out.append((int(digits), 1 if token[0] == "i" else 0))
    return out


def dart_tokens(rot) -> str:
    """The tokens of a list of darts, as ``DART...`` reads them."""
    return " ".join(("i" if end == 1 else "o") + str(edge) for (edge, end) in rot)


class _Form:
    """One line form, compiled."""

    def __init__(self, text: str, numbered: int, repeated: bool):
        self.block = text.endswith(":")
        words = text.rstrip(":").split()
        self.text = " ".join(words)
        self.numbered = numbered
        self.repeated = repeated
        self.keywords = tuple((i, w) for i, w in enumerate(words) if i and not w.isupper())
        self.tail = None    # reader of the tokens that the last word takes
        self.least = self.most = len(words)
        if words[-1].endswith(("...", "...]")):
            name = words[-1].strip("[]")[:-3]
            sep = next((c for c in name if not c.isalnum()), None)
            self.tail = (_darts if name == "DART" else " ".join if sep is None else
                         lambda toks: [tuple(map(int, t.split(sep))) for t in toks])
            self.least -= words.pop().startswith("[")
            self.most = float("inf")
        self.start = len(words)
        # (place, is an integer) of each fixed field
        self.fixed = tuple((i, len(w.rstrip("0123456789")) == 1)
                           for i, w in enumerate(words) if i and w.isupper())

    def fields(self, toks):
        """The fields of a line of this form, or None if it does not fit."""
        if not self.least <= len(toks) <= self.most:
            return None
        for i, word in self.keywords:
            if toks[i] != word:
                return None
        out = [int(toks[i]) if is_int else toks[i] for i, is_int in self.fixed]
        if self.tail is not None:
            out.append(self.tail(toks[self.start:]))
        return out


class Format:
    """A file format: its line forms, the keys that number their lines with
    the count of fields in the number, and the keys that repeat unnumbered.
    ``name`` names the format when a key is unknown."""

    def __init__(self, name: str, forms, numbered=None, repeated=()):
        self.name = name
        self.forms: dict = {}
        for text in forms:
            key = text.split()[0]
            form = _Form(text, (numbered or {}).get(key, 0), key in repeated)
            self.forms.setdefault(key, []).append(form)

    def read(self, text: str) -> Records:
        records = Records(self.name, self.forms)
        values, lines, block = records.values, records.lines, None
        for raw in text.splitlines():
            body = raw.split("#", 1)[0]
            toks = body.split()
            if not toks:
                continue
            line = body.strip()
            if block is not None and body[0].isspace():
                block.append(line)
                continue
            key = toks[0]
            forms = self.forms.get(key)
            if forms is None:
                raise ValueError(f"unknown {self.name} key {key!r} in line {line!r}")
            try:
                for form in forms:
                    fields = form.fields(toks)
                    if fields is not None:
                        break
                else:
                    raise ValueError
            except _Refusal as exc:
                raise ValueError(f"bad {key} line {line!r}: {exc}") from None
            except ValueError:
                expected = " or ".join(f"'{f.text}'" for f in forms)
                raise ValueError(f"bad {key} line {line!r}: expected {expected}") from None
            block = None
            if form.block:
                block = []
                fields.append(block)
            entries = values[key]
            n = form.numbered
            number = (len(entries) if form.repeated
                      else fields[0] if n == 1 else tuple(fields[:n]))
            if number in entries:
                raise ValueError(f"bad {key} line {line!r}: repeats an earlier {key} line")
            entries[number] = fields[n] if len(fields) == n + 1 else tuple(fields[n:])
            lines[key, number] = line
        return records


class Records:
    """The lines of one file: per key, the value of each line by its number,
    which is ``()`` for a key that is not numbered and the place among its
    lines for a key that repeats, and the text of each line."""

    def __init__(self, name: str, keys):
        self.name = name
        self.values = {key: {} for key in keys}
        self.lines = {}

    def get(self, key: str, default=None):
        """The value of the line of an unnumbered key, or ``default``."""
        return self.values[key].get((), default)

    def one(self, key: str):
        """The value of the line of an unnumbered key that the file must have."""
        if () not in self.values[key]:
            raise ValueError(f"{self.name} file missing {key} (no {key} line)")
        return self.values[key][()]

    def count(self, key: str) -> int:
        return len(self.values[key])

    def items(self, key: str):
        """``(number, value)`` of each line of ``key``, in file order."""
        return self.values[key].items()

    def numbered(self, key: str, numbers, what: str) -> list:
        """The values of the lines with the given numbers, in that order; a
        number without a line is a gap, reported as ``missing <what> <n>``."""
        entries = self.values[key]
        out = []
        for number in numbers:
            if number not in entries:
                raise ValueError(f"missing {what} {number}")
            out.append(entries[number])
        return out

    def bad(self, key: str, number, reason: str) -> ValueError:
        """The error for a line that the caller refuses."""
        return ValueError(f"bad {key} line {self.lines[key, number]!r}: {reason}")
