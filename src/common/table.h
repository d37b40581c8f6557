#pragma once

// ASCII table / series printers shared by every bench binary so each
// figure prints the same rows/series the paper reports, in a uniform
// layout.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace mrapid {

// Right-aligned numeric / left-aligned text table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);
  Table& with_title(std::string title);

  std::string to_string() const;
  void print(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }

  static std::string num(double v, int precision = 2);
  static std::string pct(double fraction, int precision = 1);  // 0.42 -> "42.0%"

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// A figure-style report: one x-axis, several named series. Renders as
// a table with one row per x value plus an optional per-series
// improvement column against a baseline series.
class SeriesReport {
 public:
  SeriesReport(std::string title, std::string x_label);

  void add_point(const std::string& series, double x, double y);
  void set_baseline(std::string series_name) { baseline_ = std::move(series_name); }

  // Returns the y value for (series, x); NaN if absent.
  double value(const std::string& series, double x) const;
  std::vector<double> xs() const;

  std::string to_string() const;
  void print(std::ostream& os) const;

 private:
  struct Point {
    double x;
    double y;
  };
  std::string title_;
  std::string x_label_;
  std::string baseline_;
  std::vector<std::string> order_;  // series in first-seen order
  std::vector<std::vector<Point>> points_;
};

}  // namespace mrapid
