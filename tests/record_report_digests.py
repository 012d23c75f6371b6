"""Re-record `report_digests.json`: run every command of
`test_report_digests.COMMANDS` and store each report's SHA-256 with the
numpy, scipy and BLAS build that produced it.

    PYTHONPATH=src python tests/record_report_digests.py
"""

import json
import tempfile
from pathlib import Path

from test_report_digests import COMMANDS, DIGESTS, build, make_archive, report_digest


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        archive = make_archive(root)
        reports = {name: report_digest(archive, root, name) for name in COMMANDS}
    DIGESTS.write_text(json.dumps({"build": build(), "reports": reports}, indent=2) + "\n")


if __name__ == "__main__":
    main()
