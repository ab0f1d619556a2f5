"""The set-up step that setup_s times, run in a fresh interpreter: import
stablesim, read the workload's spec documents (a JSON list in argv[1])
through io.spec_from_dict and build their kernels."""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import stablesim  # noqa: E402
from stablesim import io as sio  # noqa: E402

if __name__ == "__main__":
    for doc in json.loads(sys.argv[1]):
        stablesim.build(sio.spec_from_dict(doc))
