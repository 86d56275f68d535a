"""Print the set-up seconds of one workload, measured in this fresh process.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys

from run import set_up

if __name__ == "__main__":
    print(set_up(sys.argv[1], int(sys.argv[2]))[0])
