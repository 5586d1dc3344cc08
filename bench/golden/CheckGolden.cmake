# Runs one paper bench and checks its stdout against its golden file.
#
#   cmake -DBENCH=<exe> [-DBENCH_ARGS=<arg;...>] -DGOLDEN=<file>
#         [-DUPDATE=ON] -P CheckGolden.cmake
#
# The bench must exit 0.  Without UPDATE the script fails, printing the
# first lines that differ, unless stdout equals the golden file byte for
# byte; with UPDATE it rewrites the golden file from stdout instead.

cmake_minimum_required(VERSION 3.16)

if(NOT BENCH OR NOT GOLDEN)
  message(FATAL_ERROR "usage: cmake -DBENCH=<exe> -DGOLDEN=<file> "
                      "[-DBENCH_ARGS=<args>] [-DUPDATE=ON] -P CheckGolden.cmake")
endif()

execute_process(COMMAND ${BENCH} ${BENCH_ARGS}
                OUTPUT_VARIABLE Actual
                RESULT_VARIABLE Status)
if(NOT Status EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${BENCH_ARGS} exited with '${Status}'")
endif()

if(UPDATE)
  file(WRITE "${GOLDEN}" "${Actual}")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()

if(NOT EXISTS "${GOLDEN}")
  message(FATAL_ERROR "no golden file ${GOLDEN}")
endif()
file(READ "${GOLDEN}" Expected)
if(Actual STREQUAL Expected)
  return()
endif()

# Splits text into a list of lines.  Characters that CMake's list syntax
# treats specially (';' separates, '\' escapes it, brackets group) are
# replaced first and restored when a line is printed.
function(split_lines Text Out)
  string(REPLACE "\\" "<bs>" Text "${Text}")
  string(REPLACE ";" "<semi>" Text "${Text}")
  string(REPLACE "[" "<lb>" Text "${Text}")
  string(REPLACE "]" "<rb>" Text "${Text}")
  string(REPLACE "\n" ";" Text "${Text}")
  set(${Out} "${Text}" PARENT_SCOPE)
endfunction()

function(restore_line Line Out)
  string(REPLACE "<semi>" ";" Line "${Line}")
  string(REPLACE "<lb>" "[" Line "${Line}")
  string(REPLACE "<rb>" "]" Line "${Line}")
  string(REPLACE "<bs>" "\\" Line "${Line}")
  set(${Out} "${Line}" PARENT_SCOPE)
endfunction()

split_lines("${Expected}" ExpectedLines)
split_lines("${Actual}" ActualLines)
list(LENGTH ExpectedLines ExpectedCount)
list(LENGTH ActualLines ActualCount)
set(Count ${ExpectedCount})
if(ActualCount GREATER Count)
  set(Count ${ActualCount})
endif()

set(Report "")
set(Shown 0)
math(EXPR Last "${Count} - 1")
foreach(I RANGE ${Last})
  set(Want "<no line>")
  set(Got "<no line>")
  if(I LESS ExpectedCount)
    list(GET ExpectedLines ${I} Want)
  endif()
  if(I LESS ActualCount)
    list(GET ActualLines ${I} Got)
  endif()
  if(NOT Want STREQUAL Got)
    restore_line("${Want}" Want)
    restore_line("${Got}" Got)
    math(EXPR LineNo "${I} + 1")
    string(APPEND Report "line ${LineNo}:\n  golden: ${Want}\n  actual: ${Got}\n")
    math(EXPR Shown "${Shown} + 1")
    if(Shown EQUAL 5)
      break()
    endif()
  endif()
endforeach()
message(FATAL_ERROR
  "${BENCH} ${BENCH_ARGS} differs from ${GOLDEN} "
  "(${ActualCount} lines vs ${ExpectedCount}); first differences:\n"
  "${Report}"
  "If the change is meant, rebuild the golden files with "
  "`cmake --build <dir> --target update_golden` and say why in CHANGES.md.")
