/**
 * @file
 * necpt_report — merge sweep / stats / time-series JSON documents into
 * one standalone static HTML report.
 *
 *   necpt_report --out report.html --sweep sweep_smoke.json \
 *                --stats stats.json --timeseries ts.json
 *
 * The input documents are embedded verbatim in <script
 * type="application/json"> islands and rendered client-side by inline
 * JavaScript — no external assets, no network, no dependencies: the
 * file opens anywhere (CI artifact viewers included). Rendering
 * covers the sweep record table with per-job cycle-attribution
 * stacked bars (attr.*.share), registry scalars with the histogram
 * p50/p95/p99 columns, and per-run time-series sparklines with a
 * series picker.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/log.hh"

using namespace necpt;

namespace
{

struct Doc
{
    std::string kind; //!< "sweep" | "stats" | "timeseries"
    std::string name; //!< source file name (report label)
    std::string text; //!< raw JSON
};

void
usage(const char *prog)
{
    std::printf(
        "usage: %s --out FILE [--title T] [--sweep FILE]...\n"
        "       [--stats FILE]... [--timeseries FILE]...\n\n"
        "options:\n"
        "  --out FILE         HTML output path (required)\n"
        "  --title T          report title (default 'necpt report')\n"
        "  --sweep FILE       a necpt_sweep results JSON (repeatable)\n"
        "  --stats FILE       a necpt-stats-v1 registry dump\n"
        "                     (repeatable)\n"
        "  --timeseries FILE  a necpt-timeseries-v1 document\n"
        "                     (repeatable)\n",
        prog);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot read '%s'", path.c_str());
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** The one sequence that can break out of a <script> island. */
std::string
escapeScriptClose(const std::string &in)
{
    std::string out;
    out.reserve(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
        if (in.compare(i, 8, "</script") == 0) {
            out += "<\\/script";
            i += 7;
            continue;
        }
        out.push_back(in[i]);
    }
    return out;
}

std::string
htmlEscape(const std::string &in)
{
    std::string out;
    out.reserve(in.size());
    for (char c : in) {
        switch (c) {
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '&': out += "&amp;"; break;
          case '"': out += "&quot;"; break;
          default: out.push_back(c);
        }
    }
    return out;
}

const char *report_css = R"css(
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto;
       max-width: 72em; padding: 0 1em; color: #1c2330; }
h1 { font-size: 1.5em; } h2 { font-size: 1.2em; margin-top: 2em;
     border-bottom: 1px solid #d8dde6; padding-bottom: .25em; }
h3 { font-size: 1em; margin-bottom: .3em; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td { text-align: left; padding: .25em .6em; border-bottom:
         1px solid #eceff4; white-space: nowrap; }
th { background: #f4f6fa; position: sticky; top: 0; }
td.num, th.num { text-align: right;
                 font-variant-numeric: tabular-nums; }
.ok { color: #1a7f37; } .failed, .timeout { color: #b35900;
     font-weight: 600; }
.bar { display: flex; height: 14px; width: 16em; border-radius: 3px;
       overflow: hidden; background: #eceff4; }
.bar div { height: 100%; }
.legend { display: flex; flex-wrap: wrap; gap: .4em 1.2em;
          margin: .5em 0; font-size: 12px; }
.legend span::before { content: ''; display: inline-block;
  width: .8em; height: .8em; margin-right: .35em; border-radius: 2px;
  background: var(--c); vertical-align: -1px; }
.spark { border: 1px solid #d8dde6; border-radius: 3px;
         background: #fff; }
.muted { color: #68738a; }
select { font: inherit; margin: 0 0 .6em; }
)css";

const char *report_js = R"js(
'use strict';
const CAUSES = ['tlb','probe','compute','issue','mshr','cache',
                'dram_queue','dram_service','dram_bus','fault',
                'coalesce'];
const COLORS = ['#4c78a8','#72b7b2','#eeca3b','#f58518','#e45756',
                '#54a24b','#b279a2','#9d755d','#bab0ac','#d62728',
                '#17becf'];
const $ = (sel, el) => (el || document).querySelector(sel);
const el = (tag, attrs, text) => {
  const e = document.createElement(tag);
  for (const k in (attrs || {})) e.setAttribute(k, attrs[k]);
  if (text !== undefined) e.textContent = text;
  return e;
};
const fmt = v => typeof v !== 'number' ? String(v)
  : Math.abs(v) >= 1e6 ? v.toExponential(3)
  : Number.isInteger(v) ? String(v) : v.toPrecision(5);

function docs(kind) {
  return [...document.querySelectorAll(
    `script[type="application/json"][data-kind="${kind}"]`)]
    .map(s => ({name: s.dataset.name, data: JSON.parse(s.textContent)}));
}

function attrBar(metrics) {
  const bar = el('div', {class: 'bar'});
  let covered = 0;
  CAUSES.forEach((c, i) => {
    const share = metrics[`attr.${c}.share`] || 0;
    if (share <= 0) return;
    covered += share;
    const seg = el('div');
    seg.style.width = (100 * share) + '%';
    seg.style.background = COLORS[i];
    seg.title = `${c}: ${(100 * share).toFixed(1)}%`;
    bar.appendChild(seg);
  });
  return covered > 0 ? bar : el('span', {class: 'muted'}, '-');
}

function renderSweep(root, doc) {
  const d = doc.data;
  root.appendChild(el('h3', {},
    `${d.sweep} — ${d.ok}/${d.total} ok (seed ${d.base_seed})`));
  const legend = el('div', {class: 'legend'});
  CAUSES.forEach((c, i) => {
    const s = el('span', {}, c);
    s.style.setProperty('--c', COLORS[i]);
    legend.appendChild(s);
  });
  root.appendChild(legend);
  const table = el('table');
  const hdr = el('tr');
  for (const h of ['job', 'status', 'cycles', 'walks',
                   'MMU busy', 'walk cycle attribution'])
    hdr.appendChild(el('th', h === 'job' || h.includes('attr')
                       ? {} : {class: 'num'}, h));
  table.appendChild(hdr);
  for (const r of d.records) {
    const tr = el('tr');
    tr.appendChild(el('td', {}, r.key));
    tr.appendChild(el('td', {class: r.status}, r.status +
      (r.attempts > 1 ? ` (x${r.attempts})` : '')));
    const res = r.result || {};
    tr.appendChild(el('td', {class: 'num'}, fmt(res.cycles ?? '-')));
    tr.appendChild(el('td', {class: 'num'}, fmt(res.walks ?? '-')));
    tr.appendChild(el('td', {class: 'num'},
                      fmt(res.mmu_busy_cycles ?? '-')));
    const attr = el('td');
    attr.appendChild(attrBar(r.metrics || {}));
    tr.appendChild(attr);
    if (r.status !== 'ok')
      tr.title = r.error || '';
    table.appendChild(tr);
  }
  root.appendChild(table);
}

function renderStats(root, doc) {
  const d = doc.data;
  root.appendChild(el('h3', {}, doc.name));
  const table = el('table');
  const hdr = el('tr');
  for (const h of ['metric', 'kind', 'value', 'mean', 'p50', 'p95',
                   'p99', 'max'])
    hdr.appendChild(el('th', h === 'metric' || h === 'kind'
                       ? {} : {class: 'num'}, h));
  table.appendChild(hdr);
  for (const name of Object.keys(d.metrics)) {
    const m = d.metrics[name];
    const tr = el('tr');
    tr.appendChild(el('td', {}, name));
    tr.appendChild(el('td', {class: 'muted'}, m.kind));
    const cell = v => el('td', {class: 'num'},
                         v === undefined ? '' : fmt(v));
    if (m.kind === 'histogram') {
      const total = (m.bins || []).reduce((a, b) => a + b, 0);
      const pct = p => {
        if (!total) return 0;
        let seen = 0, target = p / 100 * total;
        for (let i = 0; i < m.bins.length; ++i) {
          if (m.bins[i] > 0 && seen + m.bins[i] >= target) {
            if (i === m.bins.length - 1) return m.max;
            return Math.round(i * m.bin_width +
              (target - seen) / m.bins[i] * m.bin_width);
          }
          seen += m.bins[i];
        }
        return m.max;
      };
      tr.appendChild(cell(m.total));
      tr.appendChild(cell(m.mean));
      tr.appendChild(cell(pct(50)));
      tr.appendChild(cell(pct(95)));
      tr.appendChild(cell(pct(99)));
      tr.appendChild(cell(m.max));
    } else {
      tr.appendChild(cell(m.value ?? m.last));
      for (let i = 0; i < 5; ++i) tr.appendChild(cell(undefined));
    }
    table.appendChild(tr);
  }
  root.appendChild(table);
}

function sparkline(rows, col) {
  const W = 640, H = 90, PAD = 4;
  const xs = rows.map(r => r[0]), ys = rows.map(r => r[col]);
  const x0 = Math.min(...xs), x1 = Math.max(...xs);
  const y0 = Math.min(...ys), y1 = Math.max(...ys);
  const sx = x => PAD + (x1 > x0 ? (x - x0) / (x1 - x0) : 0)
    * (W - 2 * PAD);
  const sy = y => H - PAD - (y1 > y0 ? (y - y0) / (y1 - y0) : 0.5)
    * (H - 2 * PAD);
  const pts = rows.map(r =>
    `${sx(r[0]).toFixed(1)},${sy(r[col]).toFixed(1)}`).join(' ');
  const svg = document.createElementNS(
    'http://www.w3.org/2000/svg', 'svg');
  svg.setAttribute('width', W);
  svg.setAttribute('height', H);
  svg.setAttribute('class', 'spark');
  const line = document.createElementNS(
    'http://www.w3.org/2000/svg', 'polyline');
  line.setAttribute('points', pts);
  line.setAttribute('fill', 'none');
  line.setAttribute('stroke', COLORS[0]);
  line.setAttribute('stroke-width', '1.5');
  svg.appendChild(line);
  const label = document.createElementNS(
    'http://www.w3.org/2000/svg', 'text');
  label.setAttribute('x', W - PAD);
  label.setAttribute('y', 14);
  label.setAttribute('text-anchor', 'end');
  label.setAttribute('font-size', '11');
  label.setAttribute('fill', '#68738a');
  label.textContent = `min ${fmt(y0)}  max ${fmt(y1)}`;
  svg.appendChild(label);
  return svg;
}

function renderTimeseries(root, doc) {
  const d = doc.data;
  root.appendChild(el('h3', {},
    `${doc.name} (interval ${d.interval} cycles)`));
  for (const run of d.runs) {
    if (!run.samples.length) continue;
    const box = el('div');
    box.appendChild(el('h3', {class: 'muted'}, run.key));
    const pick = el('select');
    const preferred = run.series.findIndex(s =>
      /attr\.total|busy_cycles|walks$/.test(s));
    run.series.forEach((s, i) =>
      pick.appendChild(el('option', {value: i + 1}, s)));
    pick.value = String((preferred >= 0 ? preferred : 0) + 1);
    const holder = el('div');
    const draw = () => {
      holder.textContent = '';
      holder.appendChild(sparkline(run.samples, Number(pick.value)));
    };
    pick.addEventListener('change', draw);
    box.appendChild(pick);
    box.appendChild(holder);
    draw();
    root.appendChild(box);
  }
}

function section(title) {
  const sec = el('div');
  sec.appendChild(el('h2', {}, title));
  document.body.appendChild(sec);
  return sec;
}

window.addEventListener('DOMContentLoaded', () => {
  const sweeps = docs('sweep'), stats = docs('stats'),
        series = docs('timeseries');
  if (sweeps.length) {
    const sec = section('Sweeps');
    for (const doc of sweeps) renderSweep(sec, doc);
  }
  if (series.length) {
    const sec = section('Time series');
    for (const doc of series) renderTimeseries(sec, doc);
  }
  if (stats.length) {
    const sec = section('Metrics registries');
    for (const doc of stats) renderStats(sec, doc);
  }
  if (!sweeps.length && !stats.length && !series.length)
    document.body.appendChild(
      el('p', {class: 'muted'}, 'no input documents'));
});
)js";

int
run(int argc, char **argv)
{
    std::string out_path;
    std::string title = "necpt report";
    std::vector<Doc> inputs;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--out") out_path = value();
        else if (arg == "--title") title = value();
        else if (arg == "--sweep")
            inputs.push_back({"sweep", "", value()});
        else if (arg == "--stats")
            inputs.push_back({"stats", "", value()});
        else if (arg == "--timeseries")
            inputs.push_back({"timeseries", "", value()});
        else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(argv[0]);
            return 1;
        }
    }
    if (out_path.empty()) {
        usage(argv[0]);
        return 1;
    }

    // The path arrived in .text; load the file and keep the name as
    // the report label.
    for (Doc &doc : inputs) {
        doc.name = doc.text;
        doc.text = readFile(doc.name);
    }

    std::ostringstream html;
    html << "<!doctype html>\n<html lang=\"en\">\n<head>\n"
         << "<meta charset=\"utf-8\">\n"
         << "<title>" << htmlEscape(title) << "</title>\n"
         << "<style>" << report_css << "</style>\n</head>\n<body>\n"
         << "<h1>" << htmlEscape(title) << "</h1>\n"
         << "<p class=\"muted\">" << inputs.size()
         << " input document(s); self-contained, no external"
            " assets.</p>\n";
    for (const Doc &doc : inputs) {
        html << "<script type=\"application/json\" data-kind=\""
             << doc.kind << "\" data-name=\"" << htmlEscape(doc.name)
             << "\">\n"
             << escapeScriptClose(doc.text) << "</script>\n";
    }
    html << "<script>" << report_js << "</script>\n</body>\n</html>\n";

    std::ofstream out(out_path, std::ios::binary);
    if (!out)
        fatal("cannot write '%s'", out_path.c_str());
    out << html.str();
    if (!out)
        fatal("cannot write '%s'", out_path.c_str());
    std::fprintf(stderr, "report: %s (%zu input documents)\n",
                 out_path.c_str(), inputs.size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const SimError &e) {
        fatal("%s error: %s", e.kindName(), e.what());
    }
}
