#!/usr/bin/env python3
"""The storesched end-to-end benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-tiny --seed 1 --seconds 20 --trace 0

It builds the library, storesched_cli, storesched_serve and the
benchmark's own programs into .bench_build (Release), generates the
workload's inputs from the seed, drives the real entry points, checks
every output against an in-process reference, and prints the metrics.
With --trace 1 it instead replays the same inputs through each layer in
process and prints the per-layer metrics. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = '.bench_build'
RUN_ROOT = '.bench_run'
TRACE_OUT = '.bench_out'
WORKLOADS = ('cli-tiny', 'cli-exact', 'serve-mixed')
LAUNCHES_PER_PAIR = 8
MIN_PAIRS = 3
SETUPS = 5
TRACE_LIMITS = {'trace.overhead_share': 0.25, 'trace.unaccounted_share': 0.15}


def metric_units():
    """(end-to-end, per-layer) metric name -> unit, in BENCHMARK.json order."""
    with open('BENCHMARK.json') as f:
        bench = json.load(f)
    return ({m['name']: m['unit'] for m in bench['end_to_end']},
            {m['name']: m['unit'] for m in bench['per_layer']})


class BenchError(Exception):
    """A failure that ends the run without a result line."""


class Children:
    """Every process this run starts; stop_all() ends and reaps them."""

    def __init__(self):
        self.pids = set()

    def spawn(self, argv, stdin=None, stdout=None, stderr=None, cwd=None):
        actions = []
        opened = []
        for fd, target in ((0, stdin), (1, stdout), (2, stderr)):
            if target is None:
                continue
            f = os.open(target[0], target[1], 0o644)
            opened.append(f)
            actions.append((os.POSIX_SPAWN_DUP2, f, fd))
        try:
            if cwd is not None:
                # posix_spawn has no chdir action before Python 3.13.
                argv = ['/bin/sh', '-c', 'cd "$0" && exec "$@"', cwd] + argv
            pid = os.posix_spawnp(argv[0], argv, child_env(),
                                  file_actions=actions)
        finally:
            for f in opened:
                os.close(f)
        self.pids.add(pid)
        return pid

    def wait(self, pid, timeout):
        """Reaps `pid`; returns (exit status, rusage). Kills it on timeout."""
        def expire(_signum, _frame):
            raise TimeoutError
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(pid, 0)
        except TimeoutError:
            self.kill(pid)
            raise BenchError('process %d timed out after %g s' % (pid, timeout))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.pids.discard(pid)
        return os.waitstatus_to_exitcode(status), usage

    def kill(self, pid):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
        self.pids.discard(pid)

    def stop_all(self):
        for pid in list(self.pids):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 5
        for pid in list(self.pids):
            while time.monotonic() < deadline:
                done, _, _ = os.wait4(pid, os.WNOHANG)
                if done == pid:
                    self.pids.discard(pid)
                    break
                time.sleep(0.01)
            if pid in self.pids:
                self.kill(pid)


def child_env():
    # The audit and failpoint switches are out of scope for every workload.
    return {k: v for k, v in os.environ.items()
            if not k.startswith('STORESCHED_')}


RD = os.O_RDONLY
WR = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def log(line):
    print(line, flush=True)


# ---------------------------------------------------------------------------
# Build, guard, box record.
# ---------------------------------------------------------------------------

def build(targets):
    if shutil.which('cmake') is None:
        raise BenchError('cmake is not installed')
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, 'perfbench-build.log')
    with open(build_log, 'w') as out:
        if not os.path.exists(os.path.join(BUILD_DIR, 'CMakeCache.txt')):
            cmd = ['cmake', '-S', 'perfbench', '-B', BUILD_DIR,
                   '-DCMAKE_BUILD_TYPE=Release']
            if shutil.which('ninja'):
                cmd += ['-G', 'Ninja']
            if subprocess.call(cmd, stdout=out, stderr=out) != 0:
                raise BenchError('cmake configure failed, see ' + build_log)
        cmd = ['cmake', '--build', BUILD_DIR, '-j', str(os.cpu_count() or 1),
               '--target'] + targets
        if subprocess.call(cmd, stdout=out, stderr=out) != 0:
            raise BenchError('build failed, see ' + build_log)


def guard():
    """Stops unless the build is Release without sanitizers."""
    cache = {}
    with open(os.path.join(BUILD_DIR, 'CMakeCache.txt')) as f:
        for line in f:
            if ':' in line and '=' in line and not line.startswith(('#', '//')):
                key, _, value = line.rstrip('\n').partition('=')
                cache[key.split(':')[0]] = value
    if cache.get('CMAKE_BUILD_TYPE') != 'Release':
        raise BenchError('build type is %r, not Release'
                         % cache.get('CMAKE_BUILD_TYPE'))
    if cache.get('STORESCHED_SANITIZE'):
        raise BenchError('STORESCHED_SANITIZE=%s is set'
                         % cache['STORESCHED_SANITIZE'])
    flags = ' '.join(v for k, v in cache.items() if k.startswith('CMAKE_CXX_FLAGS'))
    if '-fsanitize' in flags:
        raise BenchError('sanitizer flags in CMAKE_CXX_FLAGS')
    return cache


def box_record(cache):
    model = 'unknown'
    try:
        with open('/proc/cpuinfo') as f:
            for line in f:
                if line.startswith('model name'):
                    model = line.split(':', 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache.get('CMAKE_CXX_COMPILER', 'c++')
    try:
        version = subprocess.run([compiler, '--version'], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    log('box: nproc=%d cpu="%s" compiler="%s" build=Release sanitize=none'
        % (os.cpu_count() or 1, model, version))


def steal_seconds():
    with open('/proc/stat') as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf('SC_CLK_TCK')


# ---------------------------------------------------------------------------
# Helpers.
# ---------------------------------------------------------------------------

def bin_path(name):
    for sub in ('', 'storesched'):
        path = os.path.join(BUILD_DIR, sub, name)
        if os.path.exists(path):
            return path
    raise BenchError('missing built program ' + name)


def tool_json(children, argv, cwd, timeout=120):
    """Runs a benchmark program in `cwd`; returns (its JSON line, stderr)."""
    out_path = os.path.join(cwd, 'tool.out')
    err_path = os.path.join(cwd, 'tool.err')
    pid = children.spawn([os.path.abspath(argv[0])] + argv[1:],
                         stdout=(out_path, WR), stderr=(err_path, WR), cwd=cwd)
    status, _ = children.wait(pid, timeout)
    with open(err_path) as f:
        err = f.read()
    if status != 0:
        raise BenchError('%s failed (%d): %s' % (argv[0], status, err.strip()))
    with open(out_path) as f:
        return json.loads(f.read().strip().splitlines()[-1]), err


def median(values):
    return statistics.median(values) if values else 0.0


def fast_quartile(values):
    """The first quartile: host steal and neighbours only ever slow a pass
    down, so the faster passes of a run are its steadiest estimate."""
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def report(name, value, unit, note):
    log('metric %-26s %14.6g %-6s %s' % (name, value, unit, note))


# ---------------------------------------------------------------------------
# CLI workloads.
# ---------------------------------------------------------------------------

def cli_pass(children, cli, spec, threads, run_dir, input_name, out_name):
    """One storesched_cli run on stdin/stdout; (wall s, cpu s, maxrss KB)."""
    argv = [cli, '--spec=' + spec, '--threads=%d' % threads]
    start = time.perf_counter()
    pid = children.spawn(argv, stdin=(os.path.join(run_dir, input_name), RD),
                         stdout=(os.path.join(run_dir, out_name), WR),
                         stderr=(os.path.join(run_dir, 'cli.err'), WR))
    status, usage = children.wait(pid, 120)
    wall = time.perf_counter() - start
    if status != 0:
        with open(os.path.join(run_dir, 'cli.err')) as f:
            raise BenchError('storesched_cli exited %d: %s' % (status, f.read()))
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def count_correct(run_dir, out_name, expected):
    with open(os.path.join(run_dir, out_name), 'rb') as f:
        got = f.read()
    if got == expected:
        return expected.count(b'\n')
    want = expected.split(b'\n')
    return sum(1 for a, b in zip(got.split(b'\n'), want) if a == b and a)


def oracle_self_test(run_dir, name, expected):
    """Corrupts one result line and expects the comparison to reject it:
    an oracle that cannot fail would make correct_share meaningless."""
    path = os.path.join(run_dir, name)
    with open(path, 'rb') as f:
        got = f.read()
    at = got.index(b'"cmax":') + len(b'"cmax":')
    with open(path, 'wb') as f:
        f.write(got[:at] + b'1' + got[at:])
    if count_correct(run_dir, name, expected) != expected.count(b'\n') - 1:
        raise BenchError('oracle self-test: a corrupted line of %s passed' % name)


def prepare(children, workload, seed, run_dir):
    prepared, _ = tool_json(children, [bin_path('perfbench_tool'), 'prepare',
                                       '--workload=' + workload,
                                       '--seed=%d' % seed, '--dir=' + run_dir],
                            run_dir)
    return prepared


def run_cli(workload, seed, seconds, limit_ms, end_to_end, children, run_dir):
    nproc = os.cpu_count() or 1
    cli = bin_path('storesched_cli')
    prepared = prepare(children, workload, seed, run_dir)
    spec = prepared['spec']
    records = int(prepared['records'])
    with open(os.path.join(run_dir, 'expected.jsonl'), 'rb') as f:
        expected = f.read()
    with open(os.path.join(run_dir, 'one.expected.jsonl'), 'rb') as f:
        one_expected = f.read()

    attempted = correct = 0
    launches, launch_ok = [], 0
    walls = {nproc: [], 1: []}
    cpus = {nproc: [], 1: []}
    rss = []

    def launch():
        nonlocal attempted, correct, launch_ok
        wall, _, kb = cli_pass(children, cli, spec, 0, run_dir, 'one.jsonl',
                               'one.out')
        ok = count_correct(run_dir, 'one.out', one_expected) == 1
        attempted += 1
        correct += ok
        launches.append(wall)
        rss.append(kb)
        if ok and wall * 1000 <= limit_ms:
            launch_ok += 1

    def full_pass(threads, measured=True):
        nonlocal attempted, correct
        wall, cpu, kb = cli_pass(children, cli, spec, threads, run_dir,
                                 'input.jsonl', 'out.jsonl')
        attempted += records
        correct += count_correct(run_dir, 'out.jsonl', expected)
        if measured:
            walls[threads].append(wall)
            cpus[threads].append(cpu)
            rss.append(kb)

    # Warm-up: the page cache, the binaries, the allocator's first touch.
    full_pass(nproc, measured=False)
    start = time.monotonic()
    pairs = 0
    while pairs < MIN_PAIRS or time.monotonic() - start < seconds:
        for _ in range(LAUNCHES_PER_PAIR):
            launch()
        for threads in ((nproc, 1) if pairs % 2 == 0 else (1, nproc)):
            full_pass(threads)
        pairs += 1

    oracle_self_test(run_dir, 'out.jsonl', expected)
    oracle_self_test(run_dir, 'one.out', one_expected)
    n_passes = len(walls[nproc])
    metrics = {
        'cpu_ms_per_krecord': fast_quartile(cpus[nproc]) / records * 1e6,
        'peak_rss_mb': max(rss) / 1024.0,
        'setup_s': median(launches),
        'correct_share': correct / attempted,
        'slo_share': launch_ok / len(launches),
    }
    notes = {
        'cpu_ms_per_krecord': 'user+sys at --threads=%d, fast quartile of '
                              '%d passes of %d records' % (nproc, n_passes, records),
        'peak_rss_mb': 'max over %d processes' % len(rss),
        'setup_s': 'median of %d launches on a one-record input'
                   % len(launches),
        'correct_share': '%d of %d records byte-identical to solve_batch'
                         % (correct, attempted),
        'slo_share': 'one-record launches correct within %g ms, of %d'
                     % (limit_ms, len(launches)),
    }
    for name, unit in end_to_end.items():
        report(name, metrics[name], unit, notes[name])
    info = [
        ('throughput_rps', records / fast_quartile(walls[nproc]), '1/s',
         'records per wall second at --threads=%d, fast quartile of %d passes '
         '(median %.0f)' % (nproc, n_passes, records / median(walls[nproc]))),
        ('throughput_1t_rps', records / fast_quartile(walls[1]), '1/s',
         'records per wall second at --threads=1, fast quartile of %d passes'
         % len(walls[1])),
        ('cpu_ms_per_krecord.1t', fast_quartile(cpus[1]) / records * 1e6, 'ms',
         'user+sys at --threads=1, fast quartile of %d passes' % len(cpus[1])),
        ('p50_ms', median(launches) * 1000, 'ms',
         'one-record job latency, median of %d' % len(launches)),
    ]
    for name, value, unit, note in info:
        report(name, value, unit, note + ' (not gated)')
    return metrics, attempted, attempted - correct


def trace_cli(workload, seed, children, run_dir):
    prepare(children, workload, seed, run_dir)
    os.makedirs(TRACE_OUT, exist_ok=True)
    layers, err = tool_json(
        children, [bin_path('perfbench_trace'), '--workload=' + workload,
                   '--dir=' + run_dir, '--threads=%d' % (os.cpu_count() or 1),
                   '--trace-out=' + os.path.abspath(
                       os.path.join(TRACE_OUT, workload + '.trace.json'))],
        run_dir, timeout=170)
    sys.stdout.write(err)
    records = int(layers['io.records'])
    failed = 0 if layers.pop('trace.output_matches', 0) == 1 else records
    return layers, records, failed


# ---------------------------------------------------------------------------
# serve-mixed.
# ---------------------------------------------------------------------------

class ServeSession:
    """A published store plus a storesched_serve attached to it."""

    def __init__(self, children, run_dir, name):
        self.children = children
        self.run_dir = run_dir
        self.name = name
        self.pid = None
        self.published = False

    def start(self, prepared):
        cli = bin_path('storesched_cli')
        pid = self.children.spawn(
            [cli, '--store-publish=' + self.name],
            stdin=(os.path.join(self.run_dir, 'store.jsonl'), RD),
            stdout=('/dev/null', os.O_WRONLY),
            stderr=(os.path.join(self.run_dir, 'publish.err'), WR))
        self.published = True
        status, _ = self.children.wait(pid, 60)
        if status != 0:
            raise BenchError('store publish failed (%d)' % status)
        err_path = os.path.join(self.run_dir, 'serve.err')
        self.pid = self.children.spawn(
            [os.path.abspath(bin_path('storesched_serve')), '--unix=s.sock',
             '--threads=%d' % prepared['workers'], '--store=' + self.name,
             '--cache', '--router=' + prepared['ladder']],
            stdout=('/dev/null', os.O_WRONLY), stderr=(err_path, WR),
            cwd=self.run_dir)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            with open(err_path) as f:
                if 'listening on' in f.read():
                    return
            done, _, _ = os.wait4(self.pid, os.WNOHANG)
            if done == self.pid:
                self.children.pids.discard(self.pid)
                self.pid = None
                raise BenchError('storesched_serve exited before readiness')
            time.sleep(0.001)
        raise BenchError('storesched_serve never became ready')

    def stop(self):
        """Drains the server (SIGTERM) and removes the store."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGTERM)
            status, _ = self.children.wait(self.pid, 30)
            self.pid = None
            if status != 0:
                raise BenchError('storesched_serve exited %d' % status)
        self.unlink()

    def unlink(self):
        if not self.published:
            return
        pid = self.children.spawn(
            [bin_path('storesched_cli'), '--store-unlink=' + self.name],
            stdout=('/dev/null', os.O_WRONLY), stderr=('/dev/null', os.O_WRONLY))
        self.children.wait(pid, 30)
        self.published = False
        left = leftover_segments(self.name)
        if left:
            raise BenchError('store segments left behind: ' + ', '.join(left))


def leftover_segments(name):
    try:
        return [s for s in os.listdir('/dev/shm')
                if s == 'storesched.' + name or s.startswith('storesched.' + name + '.')]
    except OSError:
        return []


def run_serve(seed, seconds, limit_ms, nominal_rps, children, run_dir,
              sessions, traced):
    prepared = prepare(children, 'serve-mixed', seed, run_dir)
    base = 'perfbench-%d' % os.getpid()
    setups = []
    for k in range(1 if traced else SETUPS):
        session = ServeSession(children, run_dir, '%s-%d' % (base, k))
        sessions.append(session)
        start = time.perf_counter()
        session.start(prepared)
        setups.append(time.perf_counter() - start)
        if k + 1 < (1 if traced else SETUPS):
            session.stop()
            sessions.remove(session)
    session = sessions[-1]
    argv = [bin_path('perfbench_tool'), 'loadgen', '--socket=s.sock',
            '--seed=%d' % seed, '--server-pid=%d' % session.pid,
            '--nominal-rps=%g' % nominal_rps, '--limit-ms=%g' % limit_ms,
            '--seconds=%g' % seconds, '--phases=' + ('gated' if traced else 'all')]
    load, _ = tool_json(children, argv, run_dir, timeout=170)
    session.stop()
    sessions.remove(session)
    if load['nominal.server_peak_rss_kb'] <= 0:
        raise BenchError('could not read the server\'s VmHWM')
    return load, setups


def serve_metrics(load, setups, limit_ms, nominal_rps, end_to_end):
    sent = int(load['sent'])
    correct = int(load['correct'])
    metrics = {
        'cpu_ms_per_krecord': load['nominal.cpu_ms_per_krecord'],
        'peak_rss_mb': load['nominal.server_peak_rss_kb'] / 1024.0,
        'setup_s': median(setups),
        'correct_share': correct / sent,
        'slo_share': load['nominal.slo_share'],
    }
    nominal = int(load['nominal.sent'])
    notes = {
        'cpu_ms_per_krecord': 'server user+sys at the nominal rate (n=%d)'
                              % nominal,
        'peak_rss_mb': 'storesched_serve VmHWM at the end of the nominal phase',
        'setup_s': 'median of %d store publishes + server launches' % len(setups),
        'correct_share': '%d of %d requests match an in-process solve '
                         '(%d answered from a folded permutation)'
                         % (correct, sent, load['folded']),
        'slo_share': 'correct within %g ms at the nominal rate (n=%d)'
                     % (limit_ms, nominal),
    }
    for name, unit in end_to_end.items():
        report(name, metrics[name], unit, notes[name])
    info = [
        ('throughput_rps', load['nominal.answered_rps'], '1/s',
         'answered per second at the nominal %g rps (n=%d)' % (nominal_rps, nominal)),
        ('p50_ms', load['nominal.p50_ms'], 'ms',
         'at the nominal rate, from scheduled send (n=%d)' % nominal),
        ('p99_ms', load['nominal.p99_ms'], 'ms',
         'at the nominal rate, from scheduled send (n=%d)' % nominal),
        ('max_rate_rps', load['max_rate_rps'], '1/s',
         'highest ladder rung with p99 <= %g ms and no backlog growth; probes %s'
         % (limit_ms, load['probe_trail'])),
        ('throughput_rps.saturated', load['saturation_rps'], '1/s',
         'closed loop, 4 connections x window 16, fast quartile of %d 0.25 s '
         'windows (median %.0f)' % (load['saturation.windows'],
                                    load['saturation_rps.median'])),
        ('throughput_1t_rps', load['serial_rps'], '1/s',
         'closed loop, one request outstanding, fast quartile of 0.25 s windows'),
    ]
    for name, value, unit, note in info:
        report(name, value, unit, note + ' (not gated)')
    log('loadgen: late_ms.p99=%.3f late_ms.max=%.3f; steal during the nominal '
        'phase %.2f s' % (load['loadgen.late_ms.p99'], load['loadgen.late_ms.max'],
                          load['nominal.steal_s']))
    return metrics, sent, sent - correct


def trace_serve(seed, seconds, limit_ms, nominal_rps, per_layer, children,
                run_dir, sessions):
    load, _ = run_serve(seed, seconds, limit_ms, nominal_rps, children,
                        run_dir, sessions, traced=True)
    os.makedirs(TRACE_OUT, exist_ok=True)
    # The replay publishes its own store; registered so every exit path
    # unlinks it.
    replay_store = ServeSession(children, run_dir,
                                'perfbench-%d-trace' % os.getpid())
    replay_store.published = True
    sessions.append(replay_store)
    layers, err = tool_json(
        children, [bin_path('perfbench_trace'), '--workload=serve-mixed',
                   '--seed=%d' % seed, '--dir=' + run_dir,
                   '--store=' + replay_store.name,
                   '--nominal-rps=%g' % nominal_rps, '--seconds=%g' % seconds,
                   '--trace-out=' + os.path.abspath(
                       os.path.join(TRACE_OUT, 'serve-mixed.trace.json'))],
        run_dir, timeout=170)
    sys.stdout.write(err)
    replay_store.unlink()
    sessions.remove(replay_store)
    for key in per_layer:
        if key.startswith(('server.', 'loadgen.')) and key in load:
            layers[key] = load[key]
    layers['loadgen.sent'] = load['sent']
    layers['loadgen.answered'] = load['answered']
    layers['cache.folded'] = load['folded']
    sent = int(load['sent'])
    return layers, sent, sent - int(load['correct'])


def check_trace_limits(metrics):
    for name, limit in TRACE_LIMITS.items():
        ok = metrics[name] <= limit
        log('trace limit: %s = %.4f (limit %.2f) %s'
            % (name, metrics[name], limit, 'ok' if ok else 'EXCEEDED'))
        if not ok:
            raise BenchError('%s exceeds its limit' % name)
    # The self-test: with one layer's wrappers silenced, the same accounting
    # must exceed the limit, or the limit could not catch a missing wrapper.
    share = metrics['trace.selftest_unaccounted_share']
    limit = TRACE_LIMITS['trace.unaccounted_share']
    silenced = metrics['trace.selftest_silenced'] + '*'
    log('trace self-test: %s silenced -> trace.unaccounted_share = %.4f, '
        'must exceed %.2f' % (silenced, share, limit))
    if share <= limit:
        raise BenchError('trace self-test: silencing %s left the unaccounted '
                         'share within its limit' % silenced)


# ---------------------------------------------------------------------------
# Main.
# ---------------------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    parser.add_argument('--workload', choices=WORKLOADS, required=True)
    parser.add_argument('--seed', type=int,
                        help='the inputs\' seed; the first of --seeds if absent')
    parser.add_argument('--seeds', required=True,
                        help='default seed, then the seed kept for claim checks')
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), required=True)
    parser.add_argument('--nominal-rps', type=float, required=True)
    parser.add_argument('--p99-limit-ms', type=float, required=True)
    args = parser.parse_args()
    seed = args.seed if args.seed is not None else int(args.seeds.split(',')[0])

    for path in ('CMakeLists.txt', 'src', 'tools', 'perfbench/CMakeLists.txt'):
        if not os.path.exists(path):
            print('perfbench: %s not found; run from the root of a storesched '
                  'checkout' % path, file=sys.stderr)
            return 2

    children = Children()
    sessions = []
    run_dir = os.path.abspath(os.path.join(RUN_ROOT, '%s-%d' % (args.workload, os.getpid())))

    def on_signal(signum, _frame):
        raise BenchError('interrupted by signal %d' % signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        end_to_end, per_layer = metric_units()
        targets = ['storesched_cli', 'storesched_serve', 'perfbench_tool']
        if args.trace:
            targets.append('perfbench_trace')
        build(targets)
        cache = guard()
        box_record(cache)
        log('run: workload=%s seed=%d seconds=%g trace=%d'
            % (args.workload, seed, args.seconds, args.trace))
        os.makedirs(run_dir, exist_ok=True)
        steal0 = steal_seconds()
        if args.workload == 'serve-mixed':
            if args.trace:
                metrics, attempted, failed = trace_serve(
                    seed, args.seconds, args.p99_limit_ms, args.nominal_rps,
                    per_layer, children, run_dir, sessions)
            else:
                load, setups = run_serve(
                    seed, args.seconds, args.p99_limit_ms, args.nominal_rps,
                    children, run_dir, sessions, traced=False)
                metrics, attempted, failed = serve_metrics(
                    load, setups, args.p99_limit_ms, args.nominal_rps, end_to_end)
        elif args.trace:
            metrics, attempted, failed = trace_cli(args.workload, seed,
                                                   children, run_dir)
        else:
            metrics, attempted, failed = run_cli(
                args.workload, seed, args.seconds, args.p99_limit_ms,
                end_to_end, children, run_dir)
        log('steal: %.2f s accrued on the box during the run (/proc/stat)'
            % (steal_seconds() - steal0))
        if args.trace:
            check_trace_limits(metrics)
            names = per_layer
        else:
            names = end_to_end
        result = {
            'correct': failed == 0,
            'attempted': int(attempted),
            'failed': int(failed),
            'metrics': {name: {'value': float(metrics.get(name, 0.0)), 'unit': unit}
                        for name, unit in names.items()},
        }
    except Exception as err:  # every failure ends the run without a result
        print('perfbench: %s: %s' % (type(err).__name__, err), file=sys.stderr)
        return 1
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        children.stop_all()
        for session in sessions:
            try:
                session.unlink()
            except BenchError as err:
                print('perfbench: %s' % err, file=sys.stderr)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == '__main__':
    sys.exit(main())
