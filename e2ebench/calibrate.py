"""Calibration load: the speed of one CPU, measured while it is shared.

``python3 e2ebench/calibrate.py CPU COUNTERS`` pins itself to ``CPU`` and
repeats a fixed unit of interpreter work (parsing a few CSV rows into a
dict, the program's own instruction mix) forever, publishing
``(units done, own CPU nanoseconds)`` as two little-endian int64 in the
16-byte file ``COUNTERS`` after every unit.

On the 2-core container the benchmark was built on, neighbouring load
slows each vCPU on its own by up to 1.7x, in phases of seconds to
minutes. The program's CPU time then swings with it, by 20-50 % between
runs. A calibrator on the same CPU is time-sliced with the measured
process, so both see the same slow and fast phases. The program's CPU
seconds times the calibrator's units per CPU second stay within a few
per cent. See README.md, "Calibrated time".
"""

from __future__ import annotations

import csv
import mmap
import os
import struct
import sys
import time

ROWS = [
    f"{43200 + i * 0.013:.3f},11.{i % 256}.{i * 7 % 256}.{i * 13 % 256},"
    f"C1-R{i % 7},et{i % 4},{i % 9 + 1},{i * 37 % 1500},"
    for i in range(200)
]


def unit() -> None:
    counts: dict[int, int] = {}
    for row in csv.reader(ROWS):
        a, b, c, d = row[1].split(".")
        key = ((int(a) << 24) | (int(b) << 16) | (int(c) << 8) | int(d)) >> 4
        counts[key] = counts.get(key, 0) + int(row[5])


def main(cpu: int, counters: str) -> None:
    os.sched_setaffinity(0, {cpu})
    with open(counters, "r+b") as stream:
        shared = mmap.mmap(stream.fileno(), 16)
    done = 0
    while True:
        unit()
        done += 1
        shared[:16] = struct.pack("<qq", done, time.process_time_ns())


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2])
