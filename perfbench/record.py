"""Record the expected verify items and the default seed's reply digests.

Usage (from the repository root): PYTHONPATH=src python3 perfbench/record.py

Run it on a commit whose output is trusted; it rewrites perfbench/expected.json.
The benchmark then fails any later run whose verify items differ from these
lists or whose default-seed cli-session stdout differs byte for byte.
"""

import hashlib
import json
import os
import sys

import worker
from session import make_stream
from wordbell import bell, verify

os.environ["WORDBELL_MAX_DEGREE"] = "20"
items = {}
for size, params in worker.SIZES.items():
    max_n, max_k = params["word-identities"]
    items[size] = {
        "word-identities": [[i["identity"], i["range"]] for i in bell.identity_suite("all", max_n=max_n, max_k=max_k)],
        "hopf-axioms": [[i["identity"], i["range"]] for i in verify.hopf_suite(max_n=params["hopf-axioms"])],
    }
stream = make_stream(worker.DIGEST_SEED, worker.SIZES["full"]["cli-session"])
digests = {
    worker.request_key(argv): hashlib.sha256(out.encode()).hexdigest()
    for argv, _, out, _ in worker.serve(stream)
}
path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
with open(path, "w") as fh:
    json.dump({"items": items, "digests": digests}, fh, indent=1, sort_keys=True)
    fh.write("\n")
print(f"wrote {path}: {len(digests)} digests", file=sys.stderr)
