"""Record the output digest of every benchmark job in expected.json.

Run only at a commit whose outputs are known to be right; the checker
then holds every later commit to them:

    python3 perfbench/record_expected.py
"""

import json

import checker
import workloads


def main():
    workloads.load_package()
    digests = {}
    for name in workloads.WORKLOADS:
        for job in workloads.build_grid(name):
            result = job.run()
            digests[job.key] = checker.digest(checker.output(job, result))
            problems = checker.check(job, result, digests)
            if problems:
                raise SystemExit("\n".join(problems))
    checker.EXPECTED_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {checker.EXPECTED_FILE}")


if __name__ == "__main__":
    main()
