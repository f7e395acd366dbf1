#include "io/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace hyperear::io {
namespace {

imu::ImuData sample_record(std::size_t n) {
  Rng rng(971);
  imu::ImuData d;
  d.sample_rate = 100.0;
  for (std::size_t i = 0; i < n; ++i) {
    d.accel_x.push_back(rng.gaussian());
    d.accel_y.push_back(rng.gaussian());
    d.accel_z.push_back(9.80665 + rng.gaussian(0.0, 0.01));
    d.gyro_x.push_back(rng.gaussian(0.0, 0.01));
    d.gyro_y.push_back(rng.gaussian(0.0, 0.01));
    d.gyro_z.push_back(rng.gaussian(0.0, 0.01));
  }
  return d;
}

TEST(ImuCsv, RoundTrip) {
  const imu::ImuData orig = sample_record(250);
  const std::string path = "/tmp/hyperear_test_imu.csv";
  write_imu_csv(path, orig);
  const imu::ImuData back = read_imu_csv(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), orig.size());
  EXPECT_NEAR(back.sample_rate, 100.0, 0.1);
  for (std::size_t i = 0; i < orig.size(); i += 17) {
    EXPECT_NEAR(back.accel_y[i], orig.accel_y[i], 1e-7);
    EXPECT_NEAR(back.gyro_z[i], orig.gyro_z[i], 1e-7);
  }
}

TEST(ImuCsv, WriterValidation) {
  imu::ImuData empty;
  EXPECT_THROW(write_imu_csv("/tmp/x.csv", empty), PreconditionError);
  EXPECT_THROW(write_imu_csv("/nonexistent_dir/x.csv", sample_record(10)), Error);
}

TEST(ImuCsv, ReaderRejectsGarbage) {
  const std::string path = "/tmp/hyperear_test_bad.csv";
  {
    std::ofstream f(path);
    f << "not,a,header\n1,2,3\n";
  }
  EXPECT_THROW((void)read_imu_csv(path), Error);
  {
    std::ofstream f(path);
    f << "t,ax,ay,az,gx,gy,gz\n0.0,1,2,notanumber,4,5,6\n0.01,1,2,3,4,5,6\n";
  }
  EXPECT_THROW((void)read_imu_csv(path), Error);
  {
    std::ofstream f(path);
    f << "t,ax,ay,az,gx,gy,gz\n0.0,1,2,3,4,5,6\n";  // single row
  }
  EXPECT_THROW((void)read_imu_csv(path), Error);
  // Cells std::stod alone would take, an extra (or empty trailing) cell,
  // and a timestamp that steps back after a valid first interval: each is
  // refused, naming its line.
  const std::string header = "t,ax,ay,az,gx,gy,gz\n";
  for (const std::string bad_row : {"0.02,1,2,3,nan,5,6", "0.02,1,2,3,4,inf,6",
                                    "0.02,1,2,3x,4,5,6", "0.02,1,2,3,4,5,6,7",
                                    "0.02,1,2,3,4,5,6,", "0.005,1,2,3,4,5,6"}) {
    {
      std::ofstream f(path);
      f << header << "0.0,1,2,3,4,5,6\n0.01,1,2,3,4,5,6\n" << bad_row << "\n";
    }
    try {
      (void)read_imu_csv(path);
      ADD_FAILURE() << "accepted " << bad_row;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos) << e.what();
    }
  }
  // A record whose rate halves part way through (every other row dropped
  // after row 400) would load at the first step's 100 Hz: refused at the
  // first uneven step, naming its line.
  {
    std::ofstream f(path);
    f << header;
    for (int i = 0; i < 400; ++i) f << 0.01 * i << ",1,2,3,4,5,6\n";
    for (int i = 401; i < 500; i += 2) f << 0.01 * i << ",1,2,3,4,5,6\n";
  }
  try {
    (void)read_imu_csv(path);
    ADD_FAILURE() << "accepted a decimated tail";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 402"), std::string::npos) << e.what();
  }
  // Control: well-formed rows load, CRLF line endings included.
  {
    std::ofstream f(path);
    f << header << "0.0,1,2,3,4,5,6\r\n0.01,1,2,3,4,5,6\r\n0.02,1,2,3,4,5,6\r\n";
  }
  const imu::ImuData ok = read_imu_csv(path);
  EXPECT_EQ(ok.size(), 3u);
  EXPECT_NEAR(ok.sample_rate, 100.0, 1e-9);
  EXPECT_EQ(ok.gyro_z.back(), 6.0);
  std::remove(path.c_str());
  EXPECT_THROW((void)read_imu_csv("/tmp/definitely_missing.csv"), Error);
}

TEST(ImuCsv, ShortRowRejected) {
  const std::string path = "/tmp/hyperear_test_short.csv";
  {
    std::ofstream f(path);
    f << "t,ax,ay,az,gx,gy,gz\n0.0,1,2,3\n0.01,1,2,3\n";
  }
  EXPECT_THROW((void)read_imu_csv(path), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hyperear::io
