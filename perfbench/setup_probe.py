"""One set-up measurement in a fresh interpreter.

Reads instance texts separated by NUL bytes from standard input, then
times ``import lazysat`` plus ``parse_dimacs`` of every text, which is what
``lazysat solve`` pays before solving, and prints the seconds.  The
interpreter's own start-up is not counted.
"""

import sys
import time


def main():
    texts = sys.stdin.buffer.read().decode().split("\0")
    t0 = time.perf_counter()
    import lazysat

    for text in texts:
        lazysat.parse_dimacs(text)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
