#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <unordered_map>

#include "format/reader.h"

namespace e2e {

using pixels::Result;
using pixels::RowBatchPtr;
using pixels::Status;

namespace {

/// Days since 1970-01-01 of a civil date (proleptic Gregorian).
int32_t Days(int y, int m, int d) {
  y -= m <= 2 ? 1 : 0;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const int yoe = y - era * 400;
  const int doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const int doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + doe - 719468;
}

/// Calls `fn(batch)` for every row group of every file of `table`,
/// decoding only `columns`. One row group is resident at a time.
Status ForEachBatch(pixels::Catalog* catalog, const std::string& db,
                    const std::string& table,
                    const std::vector<std::string>& columns,
                    const std::function<void(const pixels::RowBatch&)>& fn) {
  PIXELS_ASSIGN_OR_RETURN(const pixels::TableSchema* schema,
                          catalog->GetTable(db, table));
  pixels::IoOptions io;
  io.use_footer_cache = false;
  io.prefetch_windows = 0;
  for (const std::string& path : schema->files) {
    PIXELS_ASSIGN_OR_RETURN(
        auto reader, pixels::PixelsReader::Open(catalog->storage(), path, io));
    for (size_t g = 0; g < reader->NumRowGroups(); ++g) {
      PIXELS_ASSIGN_OR_RETURN(RowBatchPtr batch,
                              reader->ReadRowGroup(g, columns));
      fn(*batch);
    }
  }
  return Status::OK();
}

const pixels::ColumnVector& Col(const pixels::RowBatch& b,
                                const std::string& name) {
  return *b.column(static_cast<size_t>(b.FindColumn(name)));
}

Cell Num(double v) { return Cell{false, v, {}}; }
Cell Str(std::string s) { return Cell{true, 0, std::move(s)}; }

/// Sorts `rows` with `less`, records the tie runs, and stores the answer.
Answer MakeAnswer(std::vector<Row> rows,
                  const std::function<bool(const Row&, const Row&)>& less,
                  size_t limit) {
  std::stable_sort(rows.begin(), rows.end(), less);
  Answer a;
  a.limit = limit;
  a.run_start.resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const bool tied = i > 0 && !less(rows[i - 1], rows[i]) &&
                      !less(rows[i], rows[i - 1]);
    a.run_start[i] = tied ? a.run_start[i - 1] : i;
  }
  a.rows = std::move(rows);
  return a;
}

bool CellsMatch(const Cell& a, const Cell& b) {
  if (a.is_string != b.is_string) return false;
  if (a.is_string) return a.str == b.str;
  const double scale = std::max({1.0, std::fabs(a.num), std::fabs(b.num)});
  return std::fabs(a.num - b.num) <= kRelTol * scale;
}

bool RowsMatch(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!CellsMatch(a[i], b[i])) return false;
  }
  return true;
}

std::string RowText(const Row& r) {
  std::string s = "(";
  for (size_t i = 0; i < r.size(); ++i) {
    if (i > 0) s += ", ";
    s += r[i].is_string ? "'" + r[i].str + "'" : std::to_string(r[i].num);
  }
  return s + ")";
}

}  // namespace

Status TpchOracle::Build(pixels::Catalog* catalog, const std::string& db) {
  // --- decode the columns the nine queries read, as compact arrays ---
  std::vector<std::string> nation_name;
  PIXELS_RETURN_NOT_OK(ForEachBatch(
      catalog, db, "nation", {"n_nationkey", "n_name"},
      [&](const pixels::RowBatch& b) {
        const auto& key = Col(b, "n_nationkey");
        const auto& name = Col(b, "n_name");
        for (size_t i = 0; i < b.num_rows(); ++i) {
          const size_t k = static_cast<size_t>(key.GetInt(i));
          if (nation_name.size() <= k) nation_name.resize(k + 1);
          nation_name[k] = name.GetString(i);
        }
      }));

  // customer: key -> nation; per-segment counts and balances.
  std::vector<int32_t> cust_nation(1, -1);
  std::map<std::string, std::pair<int64_t, double>> segments;
  PIXELS_RETURN_NOT_OK(ForEachBatch(
      catalog, db, "customer",
      {"c_custkey", "c_nationkey", "c_acctbal", "c_mktsegment"},
      [&](const pixels::RowBatch& b) {
        const auto& key = Col(b, "c_custkey");
        const auto& nation = Col(b, "c_nationkey");
        const auto& bal = Col(b, "c_acctbal");
        const auto& seg = Col(b, "c_mktsegment");
        for (size_t i = 0; i < b.num_rows(); ++i) {
          const size_t k = static_cast<size_t>(key.GetInt(i));
          if (cust_nation.size() <= k) cust_nation.resize(k + 1, -1);
          cust_nation[k] = static_cast<int32_t>(nation.GetInt(i));
          auto& s = segments[seg.GetString(i)];
          ++s.first;
          s.second += bal.GetDouble(i);
        }
      }));

  // orders: key -> customer, date, high priority.
  std::vector<int64_t> order_cust(1, -1);
  std::vector<int32_t> order_date(1, 0);
  std::vector<uint8_t> order_high(1, 0);
  int64_t order_count = 0;
  PIXELS_RETURN_NOT_OK(ForEachBatch(
      catalog, db, "orders",
      {"o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"},
      [&](const pixels::RowBatch& b) {
        const auto& key = Col(b, "o_orderkey");
        const auto& cust = Col(b, "o_custkey");
        const auto& date = Col(b, "o_orderdate");
        const auto& prio = Col(b, "o_orderpriority");
        for (size_t i = 0; i < b.num_rows(); ++i) {
          const size_t k = static_cast<size_t>(key.GetInt(i));
          if (order_cust.size() <= k) {
            order_cust.resize(k + 1, -1);
            order_date.resize(k + 1, 0);
            order_high.resize(k + 1, 0);
          }
          order_cust[k] = cust.GetInt(i);
          order_date[k] = static_cast<int32_t>(date.GetInt(i));
          const std::string& p = prio.GetString(i);
          order_high[k] = p == "1-URGENT" || p == "2-HIGH";
          ++order_count;
        }
      }));

  // part: key -> PROMO type.
  std::vector<uint8_t> part_promo(1, 0);
  PIXELS_RETURN_NOT_OK(ForEachBatch(
      catalog, db, "part", {"p_partkey", "p_type"},
      [&](const pixels::RowBatch& b) {
        const auto& key = Col(b, "p_partkey");
        const auto& type = Col(b, "p_type");
        for (size_t i = 0; i < b.num_rows(); ++i) {
          const size_t k = static_cast<size_t>(key.GetInt(i));
          if (part_promo.size() <= k) part_promo.resize(k + 1, 0);
          part_promo[k] = type.GetString(i).rfind("PROMO", 0) == 0;
        }
      }));

  // supplier: per-nation counts and balances.
  std::map<int32_t, std::pair<int64_t, double>> supp_by_nation;
  PIXELS_RETURN_NOT_OK(ForEachBatch(
      catalog, db, "supplier", {"s_nationkey", "s_acctbal"},
      [&](const pixels::RowBatch& b) {
        const auto& nation = Col(b, "s_nationkey");
        const auto& bal = Col(b, "s_acctbal");
        for (size_t i = 0; i < b.num_rows(); ++i) {
          auto& s = supp_by_nation[static_cast<int32_t>(nation.GetInt(i))];
          ++s.first;
          s.second += bal.GetDouble(i);
        }
      }));

  // lineitem: one pass feeds Q1, Q3, Q5, Q6, Q12 and Q14.
  const int32_t q1_cut = Days(1998, 9, 2);
  const int32_t q3_cut = Days(1995, 3, 15);
  const int32_t q6_lo = Days(1994, 1, 1), q6_hi = Days(1995, 1, 1);
  const int32_t q12_cut = Days(1995, 1, 1);
  const int32_t q14_lo = Days(1995, 9, 1), q14_hi = Days(1995, 10, 1);
  struct Q1Group {
    double qty = 0, price = 0, disc = 0;
    int64_t n = 0;
  };
  std::map<std::pair<std::string, std::string>, Q1Group> q1;
  std::unordered_map<int64_t, double> q3;
  std::vector<double> q5(nation_name.size(), 0);
  std::vector<uint8_t> q5_seen(nation_name.size(), 0);
  double q6 = 0;
  std::map<std::string, std::pair<int64_t, int64_t>> q12;
  double q14_promo = 0, q14_total = 0;
  PIXELS_RETURN_NOT_OK(ForEachBatch(
      catalog, db, "lineitem",
      {"l_orderkey", "l_partkey", "l_quantity", "l_extendedprice",
       "l_discount", "l_returnflag", "l_linestatus", "l_shipdate",
       "l_shipmode"},
      [&](const pixels::RowBatch& b) {
        const auto& okey = Col(b, "l_orderkey");
        const auto& pkey = Col(b, "l_partkey");
        const auto& qty = Col(b, "l_quantity");
        const auto& price = Col(b, "l_extendedprice");
        const auto& disc = Col(b, "l_discount");
        const auto& flag = Col(b, "l_returnflag");
        const auto& status = Col(b, "l_linestatus");
        const auto& ship = Col(b, "l_shipdate");
        const auto& mode = Col(b, "l_shipmode");
        for (size_t i = 0; i < b.num_rows(); ++i) {
          const int64_t o = okey.GetInt(i);
          const double p = price.GetDouble(i);
          const double d = disc.GetDouble(i);
          const double rev = p * (1 - d);
          const int32_t sd = static_cast<int32_t>(ship.GetInt(i));
          if (sd <= q1_cut) {
            Q1Group& g = q1[{flag.GetString(i), status.GetString(i)}];
            g.qty += qty.GetDouble(i);
            g.price += p;
            g.disc += d;
            ++g.n;
          }
          const bool has_order = o > 0 &&
                                 static_cast<size_t>(o) < order_cust.size() &&
                                 order_cust[static_cast<size_t>(o)] >= 0;
          if (has_order) {
            const size_t oi = static_cast<size_t>(o);
            if (order_date[oi] < q3_cut) q3[o] += rev;
            const int64_t c = order_cust[oi];
            if (c > 0 && static_cast<size_t>(c) < cust_nation.size() &&
                cust_nation[static_cast<size_t>(c)] >= 0) {
              const size_t n =
                  static_cast<size_t>(cust_nation[static_cast<size_t>(c)]);
              if (n < q5.size() && !nation_name[n].empty()) {
                q5[n] += rev;
                q5_seen[n] = 1;
              }
            }
            const std::string& m = mode.GetString(i);
            if ((m == "MAIL" || m == "SHIP") && sd < q12_cut) {
              auto& g = q12[m];
              if (order_high[oi]) {
                ++g.first;
              } else {
                ++g.second;
              }
            }
          }
          if (sd >= q6_lo && sd < q6_hi && d >= 0.05 && d <= 0.07 &&
              qty.GetDouble(i) < 24) {
            q6 += p * d;
          }
          const int64_t pk = pkey.GetInt(i);
          if (sd >= q14_lo && sd < q14_hi && pk > 0 &&
              static_cast<size_t>(pk) < part_promo.size()) {
            q14_total += rev;
            if (part_promo[static_cast<size_t>(pk)]) q14_promo += rev;
          }
        }
      }));

  // --- assemble the answers in TpchQuerySet() order ---
  answers_.clear();
  auto num_desc = [](size_t col) {
    return [col](const Row& a, const Row& b) { return a[col].num > b[col].num; };
  };
  auto str_asc = [](size_t col) {
    return [col](const Row& a, const Row& b) { return a[col].str < b[col].str; };
  };
  auto no_order = [](const Row&, const Row&) { return false; };

  {  // q1_pricing_summary
    std::vector<Row> rows;
    for (const auto& [key, g] : q1) {
      rows.push_back({Str(key.first), Str(key.second), Num(g.qty),
                      Num(g.price), Num(g.disc / static_cast<double>(g.n)),
                      Num(static_cast<double>(g.n))});
    }
    answers_.push_back(MakeAnswer(
        std::move(rows),
        [](const Row& a, const Row& b) {
          return a[0].str != b[0].str ? a[0].str < b[0].str
                                      : a[1].str < b[1].str;
        },
        0));
  }
  {  // q3_shipping_priority
    std::vector<Row> rows;
    rows.reserve(q3.size());
    for (const auto& [key, rev] : q3) {
      rows.push_back({Num(static_cast<double>(key)), Num(rev)});
    }
    answers_.push_back(MakeAnswer(std::move(rows), num_desc(1), 10));
  }
  {  // q5_local_supplier
    std::vector<Row> rows;
    for (size_t n = 0; n < q5.size(); ++n) {
      if (q5_seen[n]) rows.push_back({Str(nation_name[n]), Num(q5[n])});
    }
    answers_.push_back(MakeAnswer(std::move(rows), num_desc(1), 0));
  }
  // q6_forecast_revenue
  answers_.push_back(MakeAnswer({{Num(q6)}}, no_order, 0));
  {  // q12_shipmode_priority
    std::vector<Row> rows;
    for (const auto& [m, g] : q12) {
      rows.push_back({Str(m), Num(static_cast<double>(g.first)),
                      Num(static_cast<double>(g.second))});
    }
    answers_.push_back(MakeAnswer(std::move(rows), str_asc(0), 0));
  }
  // q14_promo_effect
  answers_.push_back(
      MakeAnswer({{Num(100.0 * q14_promo / q14_total)}}, no_order, 0));
  {  // q_supplier_balance
    std::vector<Row> rows;
    for (const auto& [n, s] : supp_by_nation) {
      if (n < 0 || static_cast<size_t>(n) >= nation_name.size()) continue;
      rows.push_back({Str(nation_name[static_cast<size_t>(n)]),
                      Num(static_cast<double>(s.first)),
                      Num(s.second / static_cast<double>(s.first))});
    }
    answers_.push_back(MakeAnswer(
        std::move(rows),
        [](const Row& a, const Row& b) {
          return a[1].num != b[1].num ? a[1].num > b[1].num
                                      : a[0].str < b[0].str;
        },
        10));
  }
  // probe_count_orders
  answers_.push_back(
      MakeAnswer({{Num(static_cast<double>(order_count))}}, no_order, 0));
  {  // probe_top_customers
    std::vector<Row> rows;
    for (const auto& [seg, s] : segments) {
      rows.push_back({Str(seg), Num(static_cast<double>(s.first)),
                      Num(s.second / static_cast<double>(s.first))});
    }
    answers_.push_back(MakeAnswer(std::move(rows), num_desc(1), 0));
  }
  return Status::OK();
}

std::vector<Row> ResultRows(const pixels::Table& table) {
  std::vector<Row> rows;
  for (const auto& batch : table.batches()) {
    for (size_t r = 0; r < batch->num_rows(); ++r) {
      Row row;
      row.reserve(batch->num_columns());
      for (size_t c = 0; c < batch->num_columns(); ++c) {
        const pixels::Value v = batch->column(c)->GetValue(r);
        if (v.kind == pixels::Value::Kind::kString) {
          row.push_back(Str(v.s));
        } else {
          row.push_back(Num(v.AsDouble()));
        }
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

std::string CompareAnswer(const Answer& expected,
                          const std::vector<Row>& actual) {
  const size_t n = expected.ExpectedRows();
  if (actual.size() != n) {
    return "expected " + std::to_string(n) + " rows, got " +
           std::to_string(actual.size());
  }
  // Each returned row must match a distinct expected row of its tie run
  // (runs are usually one row long, so this is a positional compare).
  std::vector<uint8_t> used(expected.rows.size(), 0);
  for (size_t i = 0; i < n; ++i) {
    const size_t start = expected.run_start[i];
    bool found = false;
    for (size_t j = start;
         j < expected.rows.size() && expected.run_start[j] == start; ++j) {
      if (!used[j] && RowsMatch(expected.rows[j], actual[i])) {
        used[j] = 1;
        found = true;
        break;
      }
    }
    if (!found) {
      return "row " + std::to_string(i) + ": expected " +
             RowText(expected.rows[i]) + ", got " + RowText(actual[i]);
    }
  }
  return "";
}

std::vector<std::string> CheckerMisses(const Answer& expected,
                                       const std::vector<Row>& correct) {
  std::vector<std::string> misses;
  auto expect_caught = [&](const std::vector<Row>& wrong, const char* what) {
    if (CompareAnswer(expected, wrong).empty()) misses.push_back(what);
  };
  if (correct.empty()) return misses;
  // A number just past the tolerance.
  for (size_t c = 0; c < correct[0].size(); ++c) {
    if (correct[0][c].is_string) continue;
    std::vector<Row> wrong = correct;
    Cell& cell = wrong[0][c];
    cell.num += 1e3 * kRelTol * std::max(1.0, std::fabs(cell.num));
    expect_caught(wrong, "nudged number");
    break;
  }
  // Two adjacent rows of distinct sort keys swapped.
  for (size_t i = 1; i < correct.size(); ++i) {
    if (expected.run_start[i] == i && !RowsMatch(correct[i - 1], correct[i])) {
      std::vector<Row> wrong = correct;
      std::swap(wrong[i - 1], wrong[i]);
      expect_caught(wrong, "swapped rows");
      break;
    }
  }
  // A row lost, and a row past the LIMIT (or a duplicate) returned.
  std::vector<Row> shorter(correct.begin(), correct.end() - 1);
  expect_caught(shorter, "dropped row");
  std::vector<Row> longer = correct;
  longer.push_back(expected.rows.size() > correct.size()
                       ? expected.rows[correct.size()]
                       : correct.back());
  expect_caught(longer, "extra row");
  return misses;
}

}  // namespace e2e
