"""The binary container that datasets and checkpoints share.

A file is a format's prefix (its magic, then any fixed fields), the JSON
header's byte length as a little-endian u64, the header as JSON with sorted
keys, then raw float64 arrays back to back. Reader reads one file front to
back; every way a file can fail to parse raises FormatError, whose message
names what was being read, its byte offset and the path.
"""

import json
import math
import os
import struct

import numpy as np


class FormatError(ValueError):
    """A container file failed to parse; the message names offset and path."""


def write(path, prefix, header, arrays):
    """path holds prefix, the header and each array's float64 bytes."""
    hb = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(prefix)
        f.write(struct.pack("<Q", len(hb)))
        f.write(hb)
        for a in arrays:
            f.write(np.ascontiguousarray(a, dtype=np.float64))


class Reader:
    """Reads the open binary file f, whose name in messages is path."""

    def __init__(self, f, path):
        self.f = f
        self.path = path
        self.size = os.fstat(f.fileno()).st_size
        self.header_offset = None

    def magic(self, expected):
        if self.f.read(len(expected)) != expected:
            raise FormatError(f"bad magic at byte 0 in {self.path}")

    def _need(self, n, what):
        """The offset n bytes of what start at, if the file holds them."""
        offset = self.f.tell()
        if n > self.size - offset:
            raise FormatError(f"truncated {what} at byte {offset}: needs {n} "
                              f"bytes, {self.size - offset} left in "
                              f"{self.path}")
        return offset

    def read(self, n, what):
        self._need(n, what)
        return self.f.read(n)

    def header(self):
        """The JSON header; its offset is kept for bad_header."""
        (n,) = struct.unpack("<Q", self.read(8, "header length"))
        self.header_offset = self.f.tell()
        hb = self.read(n, "header")
        try:
            return json.loads(hb)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            pos = getattr(exc, "pos", getattr(exc, "start", 0))
            raise FormatError(f"bad header json at byte "
                              f"{self.header_offset + pos} in "
                              f"{self.path}") from exc

    def bad_header(self, problem):
        return FormatError(f"bad header at byte {self.header_offset}: "
                           f"{problem} in {self.path}")

    def floats(self, shape, what):
        """The next float64 array of shape; all its values are finite.

        The size is checked against the file before anything is allocated,
        since the shape comes from the file.
        """
        offset = self._need(math.prod(shape) * 8, what)
        out = np.empty(shape)
        self.f.readinto(out)
        if not np.isfinite(out).all():
            raise FormatError(f"{what} at byte {offset} holds a non-finite "
                              f"value in {self.path}")
        return out

    def end(self, what):
        """Raise unless the file ends here, after its last what."""
        end = self.f.tell()
        if end != self.size:
            raise FormatError(f"{self.size - end} bytes after the last {what} "
                              f"at byte {end} in {self.path}")


def check_fields(obj, fields, where, bad):
    """Raise bad(problem) unless obj is a dict holding every field's type.

    fields maps a name to a JSON type, or to [kind] for a list whose items
    all have that type. Types are compared exactly, as json.loads makes
    them, so true is not an int.
    """
    if type(obj) is not dict:
        raise bad(f"{where} is not a JSON object")
    for name, kind in fields.items():
        if name not in obj:
            raise bad(f"{where} is missing field {name!r}")
        value = obj[name]
        if type(kind) is list:
            ok = type(value) is list and set(map(type, value)) <= set(kind)
        else:
            ok = type(value) is kind
        if not ok:
            label = (f"list of {kind[0].__name__}" if type(kind) is list
                     else kind.__name__)
            raise bad(f"{where} field {name!r} should be {label}")
