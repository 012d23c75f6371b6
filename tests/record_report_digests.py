"""Re-record `report_digests.json`: run every command of
`test_report_digests.COMMANDS` and store the SHA-256 of each report and of
each file of the archive they read, with the numpy, scipy and BLAS build
that produced them.

    PYTHONPATH=src python tests/record_report_digests.py
"""

import json
import tempfile
from pathlib import Path

from test_report_digests import (
    COMMANDS,
    DIGESTS,
    archive_digests,
    build,
    make_archive,
    report_digest,
)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        archive = make_archive(root)
        files = archive_digests(archive)
        reports = {name: report_digest(archive, root, name) for name in COMMANDS}
    DIGESTS.write_text(json.dumps({"build": build(), "archive": files, "reports": reports},
                                  indent=2) + "\n")


if __name__ == "__main__":
    main()
