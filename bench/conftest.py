import os
import sys

# The benchmark imports the package from this tree's sources, as run.py does.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
