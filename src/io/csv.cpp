#include "io/csv.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace hyperear::io {

void write_imu_csv(const std::string& path, const imu::ImuData& data) {
  require(data.size() > 0, "write_imu_csv: empty record");
  require(data.sample_rate > 0.0, "write_imu_csv: bad sample rate");
  std::ofstream file(path);
  if (!file) throw Error("write_imu_csv: cannot open " + path);
  file << "t,ax,ay,az,gx,gy,gz\n";
  char row[256];
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::snprintf(row, sizeof(row), "%.6f,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g\n",
                  data.time_of(i), data.accel_x[i], data.accel_y[i], data.accel_z[i],
                  data.gyro_x[i], data.gyro_y[i], data.gyro_z[i]);
    file << row;
  }
  if (!file) throw Error("write_imu_csv: write failed for " + path);
}

namespace {

/// A cell is one finite number and nothing else: std::stod alone would take
/// "3x" as 3 and let "nan"/"inf" through.
double parse_cell(const std::string& cell, const std::string& where) {
  std::size_t used = 0;
  double v = 0.0;
  try {
    v = std::stod(cell, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != cell.size() || !std::isfinite(v)) {
    throw Error(where + ": bad number '" + cell + "'");
  }
  return v;
}

}  // namespace

imu::ImuData read_imu_csv(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw Error("read_imu_csv: cannot open " + path);
  std::string line;
  require(static_cast<bool>(std::getline(file, line)), "read_imu_csv: empty file");
  require(line.rfind("t,", 0) == 0, "read_imu_csv: missing header");

  imu::ImuData data;
  std::vector<double> times;
  std::size_t line_no = 1;
  while (std::getline(file, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF-authored file
    if (line.empty()) continue;
    const std::string where =
        "read_imu_csv: line " + std::to_string(line_no) + " '" + line + "'";
    std::istringstream row(line);
    std::vector<std::string> cells;
    for (std::string cell; std::getline(row, cell, ',');) cells.push_back(cell);
    if (line.back() == ',') cells.emplace_back();  // getline drops a trailing empty cell
    require(cells.size() == 7, where + ": expected 7 cells, got " +
                                   std::to_string(cells.size()));
    double values[7];
    for (std::size_t k = 0; k < 7; ++k) values[k] = parse_cell(cells[k], where);
    require(times.empty() || values[0] > times.back(),
            where + ": timestamp not after the previous row's");
    if (times.size() >= 2) {
      const double first_step = times[1] - times[0];
      require(std::abs((values[0] - times.back()) - first_step) <= 0.01 * first_step,
              where + ": time step departs from the first step by more than 1 %");
    }
    times.push_back(values[0]);
    data.accel_x.push_back(values[1]);
    data.accel_y.push_back(values[2]);
    data.accel_z.push_back(values[3]);
    data.gyro_x.push_back(values[4]);
    data.gyro_y.push_back(values[5]);
    data.gyro_z.push_back(values[6]);
  }
  require(times.size() >= 2, "read_imu_csv: need at least two samples");
  data.sample_rate = 1.0 / (times[1] - times[0]);
  return data;
}

}  // namespace hyperear::io
