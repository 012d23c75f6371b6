"""Re-record `report_digests.json`: run every command of
`test_report_digests.COMMANDS` and store the SHA-256 of each report, of
each file of the archive they read and of each search table of
`test_report_digests.TABLES`, with the numpy, scipy and BLAS build that
produced them.

    PYTHONPATH=src python tests/record_report_digests.py
"""

import json
import tempfile
from pathlib import Path

from test_report_digests import (
    COMMANDS,
    DIGESTS,
    TABLES,
    archive_digests,
    build,
    make_archive,
    report_digest,
    table_digest,
)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        archive = make_archive(root)
        files = archive_digests(archive)
        reports = {name: report_digest(archive, root, name) for name in COMMANDS}
        tables = {name: table_digest(table(archive)) for name, table in TABLES.items()}
    DIGESTS.write_text(json.dumps({"build": build(), "archive": files, "reports": reports,
                                   "tables": tables}, indent=2) + "\n")


if __name__ == "__main__":
    main()
