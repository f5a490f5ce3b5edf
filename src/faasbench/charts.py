"""Box charts drawn from the published summary statistics, written as PNG.

A chart is a horizontal box plot with one row per group, labelled at the
left: the box spans ``p25``..``p75``, a vertical line marks ``p50``, and the
whiskers run out to ``whisker_low`` and ``whisker_high``.  These are the
nearest-rank figures of the ``SummaryStats`` that ``summary.csv`` and
``summary.json`` publish, so the picture and the tables cannot disagree.
The x axis spans the lowest to the highest whisker end of the chart. When
both ends are whole numbers it is an integer axis: its ticks are exact ints,
a whole number apart, at any magnitude (float steps past 2**53 round
together or out of the range).

The image is drawn into one ``bytearray`` of RGB bytes per row, with a
built-in 5x7 bitmap font (printable ASCII; any other character is drawn as
``?``), and encoded as an 8-bit RGB PNG with ``zlib`` at a fixed level and no
timestamp chunk, so the bytes depend on the statistics alone. It needs only
the standard library.
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .analysis import SummaryStats

BACKGROUND = (255, 255, 255)
INK = (0, 0, 0)  # text, axis and whiskers
BOX_EDGE = (31, 119, 180)
BOX_FILL = (198, 219, 239)
MEDIAN = (230, 85, 13)

# Each glyph is 7 rows of 5 pixels, top row first; '#' is ink.
_FONT = {
    " ": "..... ..... ..... ..... ..... ..... .....",
    "!": "..#.. ..#.. ..#.. ..#.. ..#.. ..... ..#..",
    '"': ".#.#. .#.#. .#.#. ..... ..... ..... .....",
    "#": ".#.#. .#.#. ##### .#.#. ##### .#.#. .#.#.",
    "$": "..#.. .#### #.#.. .###. ..#.# ####. ..#..",
    "%": "##... ##..# ...#. ..#.. .#... #..## ...##",
    "&": ".##.. #..#. #.#.. .#... #.#.# #..#. .##.#",
    "'": "..#.. ..#.. .#... ..... ..... ..... .....",
    "(": "...#. ..#.. .#... .#... .#... ..#.. ...#.",
    ")": ".#... ..#.. ...#. ...#. ...#. ..#.. .#...",
    "*": "..... ..#.. #.#.# .###. #.#.# ..#.. .....",
    "+": "..... ..#.. ..#.. ##### ..#.. ..#.. .....",
    ",": "..... ..... ..... ..... .##.. ..#.. .#...",
    "-": "..... ..... ..... ##### ..... ..... .....",
    ".": "..... ..... ..... ..... ..... .##.. .##..",
    "/": "..... ....# ...#. ..#.. .#... #.... .....",
    "0": ".###. #...# #..## #.#.# ##..# #...# .###.",
    "1": "..#.. .##.. ..#.. ..#.. ..#.. ..#.. .###.",
    "2": ".###. #...# ....# ...#. ..#.. .#... #####",
    "3": "##### ...#. ..#.. ...#. ....# #...# .###.",
    "4": "...#. ..##. .#.#. #..#. ##### ...#. ...#.",
    "5": "##### #.... ####. ....# ....# #...# .###.",
    "6": "..##. .#... #.... ####. #...# #...# .###.",
    "7": "##### ....# ...#. ..#.. .#... .#... .#...",
    "8": ".###. #...# #...# .###. #...# #...# .###.",
    "9": ".###. #...# #...# .#### ....# ...#. .##..",
    ":": "..... .##.. .##.. ..... .##.. .##.. .....",
    ";": "..... .##.. .##.. ..... .##.. ..#.. .#...",
    "<": "...#. ..#.. .#... #.... .#... ..#.. ...#.",
    "=": "..... ..... ##### ..... ##### ..... .....",
    ">": ".#... ..#.. ...#. ....# ...#. ..#.. .#...",
    "?": ".###. #...# ....# ...#. ..#.. ..... ..#..",
    "@": ".###. #...# ....# .##.# #.#.# #.#.# .###.",
    "A": ".###. #...# #...# ##### #...# #...# #...#",
    "B": "####. #...# #...# ####. #...# #...# ####.",
    "C": ".###. #...# #.... #.... #.... #...# .###.",
    "D": "###.. #..#. #...# #...# #...# #..#. ###..",
    "E": "##### #.... #.... ####. #.... #.... #####",
    "F": "##### #.... #.... ####. #.... #.... #....",
    "G": ".###. #...# #.... #.### #...# #...# .####",
    "H": "#...# #...# #...# ##### #...# #...# #...#",
    "I": ".###. ..#.. ..#.. ..#.. ..#.. ..#.. .###.",
    "J": "..### ...#. ...#. ...#. ...#. #..#. .##..",
    "K": "#...# #..#. #.#.. ##... #.#.. #..#. #...#",
    "L": "#.... #.... #.... #.... #.... #.... #####",
    "M": "#...# ##.## #.#.# #.#.# #...# #...# #...#",
    "N": "#...# #...# ##..# #.#.# #..## #...# #...#",
    "O": ".###. #...# #...# #...# #...# #...# .###.",
    "P": "####. #...# #...# ####. #.... #.... #....",
    "Q": ".###. #...# #...# #...# #.#.# #..#. .##.#",
    "R": "####. #...# #...# ####. #.#.. #..#. #...#",
    "S": ".#### #.... #.... .###. ....# ....# ####.",
    "T": "##### ..#.. ..#.. ..#.. ..#.. ..#.. ..#..",
    "U": "#...# #...# #...# #...# #...# #...# .###.",
    "V": "#...# #...# #...# #...# #...# .#.#. ..#..",
    "W": "#...# #...# #...# #.#.# #.#.# #.#.# .#.#.",
    "X": "#...# #...# .#.#. ..#.. .#.#. #...# #...#",
    "Y": "#...# #...# .#.#. ..#.. ..#.. ..#.. ..#..",
    "Z": "##### ....# ...#. ..#.. .#... #.... #####",
    "[": ".###. .#... .#... .#... .#... .#... .###.",
    "\\": "..... #.... .#... ..#.. ...#. ....# .....",
    "]": ".###. ...#. ...#. ...#. ...#. ...#. .###.",
    "^": "..#.. .#.#. #...# ..... ..... ..... .....",
    "_": "..... ..... ..... ..... ..... ..... #####",
    "`": ".#... ..#.. ...#. ..... ..... ..... .....",
    "a": "..... ..... .###. ....# .#### #...# .####",
    "b": "#.... #.... #.##. ##..# #...# #...# ####.",
    "c": "..... ..... .###. #.... #.... #...# .###.",
    "d": "....# ....# .##.# #..## #...# #...# .####",
    "e": "..... ..... .###. #...# ##### #.... .###.",
    "f": "..##. .#..# .#... ###.. .#... .#... .#...",
    "g": "..... .#### #...# #...# .#### ....# .###.",
    "h": "#.... #.... #.##. ##..# #...# #...# #...#",
    "i": "..#.. ..... .##.. ..#.. ..#.. ..#.. .###.",
    "j": "...#. ..... ..##. ...#. ...#. #..#. .##..",
    "k": "#.... #.... #..#. #.#.. ##... #.#.. #..#.",
    "l": ".##.. ..#.. ..#.. ..#.. ..#.. ..#.. .###.",
    "m": "..... ..... ##.#. #.#.# #.#.# #...# #...#",
    "n": "..... ..... #.##. ##..# #...# #...# #...#",
    "o": "..... ..... .###. #...# #...# #...# .###.",
    "p": "..... ..... ####. #...# ####. #.... #....",
    "q": "..... ..... .##.# #..## .#### ....# ....#",
    "r": "..... ..... #.##. ##..# #.... #.... #....",
    "s": "..... ..... .###. #.... .###. ....# ####.",
    "t": ".#... .#... ###.. .#... .#... .#..# ..##.",
    "u": "..... ..... #...# #...# #...# #..## .##.#",
    "v": "..... ..... #...# #...# #...# .#.#. ..#..",
    "w": "..... ..... #...# #...# #.#.# #.#.# .#.#.",
    "x": "..... ..... #...# .#.#. ..#.. .#.#. #...#",
    "y": "..... ..... #...# #...# .#### ....# .###.",
    "z": "..... ..... ##### ...#. ..#.. .#... #####",
    "{": "...#. ..#.. ..#.. .#... ..#.. ..#.. ...#.",
    "|": "..#.. ..#.. ..#.. ..#.. ..#.. ..#.. ..#..",
    "}": ".#... ..#.. ..#.. ...#. ..#.. ..#.. .#...",
    "~": "..... ..... .#... #.#.# ...#. ..... .....",
}
_GLYPH_H = 7
_ADVANCE = 6  # glyph width 5 plus one column of spacing

_PAD = 10
_TITLE_SCALE = 2
_ROW_H = 22
_BOX_H = 14
_CAP_H = 8
_PLOT_W = 480
_TICK_H = 4


def box_chart_png(title: str, groups: dict[str, SummaryStats]) -> bytes:
    """PNG bytes of a box chart with one row per group, top to bottom in order.

    Every group must have data (``count > 0``) and there must be at least one.
    """
    lo = min(s.whisker_low for s in groups.values())
    hi = max(s.whisker_high for s in groups.values())
    if hi == lo:
        half = abs(lo) / 10 or 1
        lo, hi = lo - half, hi + half
    if all(isinstance(v, int) or v.is_integer() for v in (lo, hi)):
        lo, hi = int(lo), int(hi)  # an integer axis, whose differences stay exact
    ticks = _ticks(lo, hi)
    tick_half_w = max((_text_width(label) for _, label in ticks), default=0) // 2

    x0 = _PAD + max(max(_text_width(g) for g in groups) + _PAD, tick_half_w)
    y0 = _PAD + _GLYPH_H * _TITLE_SCALE + _PAD
    axis_y = y0 + len(groups) * _ROW_H
    width = max(x0 + _PLOT_W + tick_half_w + _PAD, 2 * _PAD + _text_width(title, _TITLE_SCALE))
    height = axis_y + _TICK_H + 2 + _GLYPH_H + _PAD
    img = [bytearray(BACKGROUND) * width for _ in range(height)]

    def px(value: float) -> int:
        # float arithmetic near 2**53 and beyond can land a column past either end
        return x0 + min(max(round((value - lo) / (hi - lo) * (_PLOT_W - 1)), 0), _PLOT_W - 1)

    _draw_text(img, _PAD, _PAD, title, _TITLE_SCALE)
    for i, (group, s) in enumerate(groups.items()):
        top = y0 + i * _ROW_H + (_ROW_H - _BOX_H) // 2
        bottom = top + _BOX_H  # exclusive
        mid = top + _BOX_H // 2
        _draw_text(img, x0 - _PAD - _text_width(group), mid - _GLYPH_H // 2, group)
        x_lo, x25, x50, x75, x_hi = (px(v) for v in (s.whisker_low, s.p25, s.p50, s.p75, s.whisker_high))
        _fill(img, x_lo, x_hi + 1, mid, mid + 1, INK)
        cap_top = mid - _CAP_H // 2
        for x in (x_lo, x_hi):
            _fill(img, x, x + 1, cap_top, cap_top + _CAP_H + 1, INK)
        _fill(img, x25, x75 + 1, top, bottom, BOX_EDGE)
        _fill(img, x25 + 1, x75, top + 1, bottom - 1, BOX_FILL)
        _fill(img, x50, x50 + 1, top, bottom, MEDIAN)

    _fill(img, x0, x0 + _PLOT_W, axis_y, axis_y + 1, INK)
    for value, label in ticks:
        x = px(value)
        _fill(img, x, x + 1, axis_y, axis_y + _TICK_H, INK)
        _draw_text(img, x - _text_width(label) // 2, axis_y + _TICK_H + 2, label)
    return _encode_png(img)


def _ticks(lo: float, hi: float) -> list[tuple[float, str]]:
    """Round-numbered ticks (steps of 1, 2 or 5 times a power of ten) in [lo, hi]. Between int
    limits the step is at least 1 and the ticks are exact ints; between float limits it is at least
    the float spacing, and a tick that ``k * step`` rounds out of the range is left out (maybe all)."""
    rough = (hi - lo) / 5
    if type(lo) is int and type(hi) is int:
        power = math.floor(math.log10(rough))
        step = next(m * 10 ** max(power, 0) for m in (1, 2, 5, 10) if m * 10 ** max(power, 0) >= rough)
        return [(v, str(v)) for v in range(-(-lo // step) * step, hi // step * step + 1, step)]
    rough = max(rough, math.ulp(max(abs(lo), abs(hi))))
    power = math.floor(math.log10(rough))
    step = next(m * 10.0 ** power for m in (1, 2, 5, 10) if m * 10.0 ** power >= rough)
    decimals = max(0, -math.floor(math.log10(step)))
    first = math.ceil(lo / step)
    last = math.floor(hi / step)
    return [(v, f"{v:.{decimals}f}") for v in (k * step for k in range(first, last + 1)) if lo <= v <= hi]


def _text_width(text: str, scale: int = 1) -> int:
    return max(0, len(text) * _ADVANCE - 1) * scale


def _fill(img: list[bytearray], x_start: int, x_end: int, y_start: int, y_end: int, color: tuple) -> None:
    """Paint columns ``x_start..x_end - 1`` of rows ``y_start..y_end - 1``; an empty range paints nothing."""
    if x_end > x_start:
        span = bytes(color) * (x_end - x_start)
        for row in img[y_start:y_end]:
            row[3 * x_start:3 * x_end] = span


def _draw_text(img: list[bytearray], x: int, y: int, text: str, scale: int = 1) -> None:
    for i, ch in enumerate(text):
        gx = x + i * _ADVANCE * scale
        for r, row in enumerate(_FONT.get(ch, _FONT["?"]).split()):
            for c, cell in enumerate(row):
                if cell == "#":
                    _fill(img, gx + c * scale, gx + (c + 1) * scale, y + r * scale, y + (r + 1) * scale, INK)


def _encode_png(img: list[bytearray]) -> bytes:
    """An 8-bit RGB PNG of rows of RGB bytes, filter type 0 on every row."""
    height, width = len(img), len(img[0]) // 3

    def chunk(kind: bytes, data: bytes) -> bytes:
        return struct.pack(">I", len(data)) + kind + data + struct.pack(">I", zlib.crc32(kind + data))

    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0))
        + chunk(b"IDAT", zlib.compress(b"".join(b"\0" + row for row in img), 9))
        + chunk(b"IEND", b"")
    )
