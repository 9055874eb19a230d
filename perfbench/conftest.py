"""Make the benchmark's modules and the program importable in its tests.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]
